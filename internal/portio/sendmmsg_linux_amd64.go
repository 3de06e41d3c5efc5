package portio

// sysSendmmsg is sendmmsg(2), which package syscall leaves out on amd64.
const sysSendmmsg = 307
