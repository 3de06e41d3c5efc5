//go:build linux && !amd64 && !386

package portio

import "syscall"

const sysSendmmsg = syscall.SYS_SENDMMSG
