package portio

import (
	"encoding/binary"
	"net"
	"strconv"
	"syscall"
	"unsafe"
)

// mmsghdr is struct mmsghdr: one msghdr and the byte count the kernel
// fills in. Go pads it to the C layout on every linux arch.
type mmsghdr struct {
	syscall.Msghdr
	n uint32
}

// msgVec is one burst of preallocated message headers, each with its
// own iovec and link-layer address slot, so recvmmsg and sendmmsg
// allocate nothing. RX vectors also own one buffer per message.
type msgVec struct {
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrLinklayer
	bufs  [][]byte
}

// newMsgVec builds n headers; size > 0 gives each a buffer of that size
// and its address slot, ready to receive into.
func newMsgVec(n, size int) *msgVec {
	v := &msgVec{hdrs: make([]mmsghdr, n), iovs: make([]syscall.Iovec, n), names: make([]syscall.RawSockaddrLinklayer, n)}
	for i := range v.hdrs {
		v.hdrs[i].Iov, v.hdrs[i].Iovlen = &v.iovs[i], 1
		if size > 0 {
			v.bufs = append(v.bufs, make([]byte, size))
			v.set(i, v.bufs[i], unsafe.Pointer(&v.names[i]), syscall.SizeofSockaddrLinklayer)
		}
	}
	return v
}

// set points message i at buf, addressed to the namelen-byte sockaddr
// at name.
func (v *msgVec) set(i int, buf []byte, name unsafe.Pointer, namelen int) {
	v.iovs[i].Base = unsafe.SliceData(buf)
	v.iovs[i].SetLen(len(buf))
	v.hdrs[i].Name, v.hdrs[i].Namelen = (*byte)(name), uint32(namelen)
}

// frame is received message i; own reports an AF_PACKET socket's own
// transmission seen on the way out (PACKET_OUTGOING).
func (v *msgVec) frame(i int) (f []byte, own bool) {
	sa := &v.names[i]
	return v.bufs[i][:v.hdrs[i].n], sa.Family == syscall.AF_PACKET && sa.Pkttype == syscall.PACKET_OUTGOING
}

// dgramSock is a plain blocking datagram socket: its reader waits in
// the kernel, never in the netpoller. conn, if any, bound it and closes it.
type dgramSock struct {
	fd   int
	conn *net.UDPConn
}

// udpSock takes conn's socket for the pump: blocking, read and written
// only through fd from here on.
func udpSock(conn *net.UDPConn) (dgramSock, error) {
	s := dgramSock{conn: conn}
	rc, err := conn.SyscallConn()
	if err == nil {
		err = rc.Control(func(fd uintptr) { s.fd = int(fd) })
	}
	if err == nil {
		err = syscall.SetNonblock(s.fd, false)
	}
	return s, err
}

// mmsg is one recvmmsg or sendmmsg over hdrs.
func mmsg(trap uintptr, fd int, hdrs []mmsghdr, flags int) (int, error) {
	n, _, e := syscall.Syscall6(trap, uintptr(fd), uintptr(unsafe.Pointer(&hdrs[0])), uintptr(len(hdrs)), uintptr(flags), 0, 0)
	if e != 0 {
		return 0, e
	}
	return int(n), nil
}

// recv blocks until at least one datagram is queued and takes whatever
// else already is, up to the burst (MSG_WAITFORONE).
func (s dgramSock) recv(v *msgVec) (int, error) {
	for i := range v.hdrs {
		v.hdrs[i].Namelen = syscall.SizeofSockaddrLinklayer // the kernel wrote the last source's length back
	}
	return mmsg(syscall.SYS_RECVMMSG, s.fd, v.hdrs, syscall.MSG_WAITFORONE)
}

// send writes frames, already set in v, with as few sendmmsg calls as
// the kernel allows: a message it refuses counts one TxDrop and is
// skipped, the rest go out.
func (s dgramSock) send(v *msgVec, frames [][]byte, st *counters) {
	for i := 0; i < len(frames); {
		n, err := mmsg(sysSendmmsg, s.fd, v.hdrs[i:len(frames)], 0)
		switch {
		case err == syscall.EINTR:
		case err != nil:
			st.txDrop()
			i++
		default:
			for _, f := range frames[i : i+n] {
				st.countTx(len(f))
			}
			i += n
		}
	}
}

func (s dgramSock) sendTo(v *msgVec, frames [][]byte, p *udpPeer, st *counters) {
	for i, f := range frames {
		v.set(i, f, unsafe.Pointer(&p.sa), p.len)
	}
	s.send(v, frames, st)
}

// shutdown wakes a reader blocked in recv. Its error is moot: ENOTCONN
// on UDP wakes it anyway; a packet socket's read timeout wakes its own.
func (s dgramSock) shutdown() { _ = syscall.Shutdown(s.fd, syscall.SHUT_RDWR) }

func (s dgramSock) close() error {
	if s.conn != nil {
		return s.conn.Close()
	}
	return syscall.Close(s.fd)
}

// htons converts a short to network byte order.
func htons(v uint16) uint16 { return binary.NativeEndian.Uint16([]byte{byte(v >> 8), byte(v)}) }

// zoneID is an IPv6 zone's interface index ("eth0" or "2").
func zoneID(zone string) uint32 {
	if ifi, err := net.InterfaceByName(zone); err == nil {
		return uint32(ifi.Index)
	}
	n, _ := strconv.Atoi(zone)
	return uint32(n)
}

// udpPeer is a peer address prebuilt as the socket family's raw
// sockaddr: the msg_name of every egress message.
type udpPeer struct {
	sa  syscall.RawSockaddrInet6 // or a RawSockaddrInet4 in its prefix
	len int
}

// peer builds a's sockaddr for s: IPv4 as such on an IPv4 socket,
// v4-mapped on an IPv6 (dual-stack) one.
func (s dgramSock) peer(a *net.UDPAddr) (*udpPeer, error) {
	p := &udpPeer{len: syscall.SizeofSockaddrInet6}
	p.sa.Port = htons(uint16(a.Port))
	if s.conn.LocalAddr().(*net.UDPAddr).IP.To4() != nil {
		ip4 := a.IP.To4()
		if ip4 == nil {
			return nil, &net.AddrError{Err: "IPv6 peer for an IPv4 socket", Addr: a.String()}
		}
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&p.sa))
		sa4.Family, p.len = syscall.AF_INET, syscall.SizeofSockaddrInet4
		copy(sa4.Addr[:], ip4)
		return p, nil
	}
	p.sa.Family, p.sa.Scope_id = syscall.AF_INET6, zoneID(a.Zone)
	copy(p.sa.Addr[:], a.IP.To16())
	return p, nil
}
