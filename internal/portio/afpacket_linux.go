package portio

import (
	"errors"
	"fmt"
	"net"
	"syscall"
	"time"
	"unsafe"
)

// Open implements PortDriver: open the raw socket, bind it to the
// interface, start the egress writer and RX pump.
func (d *AFPacketDriver) Open(ing Ingress) error {
	if err := d.begin("afpacket", ing); err != nil {
		return err
	}
	ifi, err := net.InterfaceByName(d.cfg.Interface)
	if err != nil {
		return fmt.Errorf("portio: afpacket interface %q: %w", d.cfg.Interface, err)
	}
	fd, err := syscall.Socket(syscall.AF_PACKET, syscall.SOCK_RAW|syscall.SOCK_CLOEXEC, int(htons(syscall.ETH_P_ALL)))
	if err != nil {
		return fmt.Errorf("portio: afpacket socket (need CAP_NET_RAW): %w", err)
	}
	d.sock, d.ifindex = dgramSock{fd: fd}, ifi.Index
	// Packet sockets ignore shutdown, so a bounded read is how the RX
	// pump sees Close: it wakes at least every 50ms.
	tv := syscall.NsecToTimeval((50 * time.Millisecond).Nanoseconds())
	if err := errors.Join(
		syscall.Bind(fd, &syscall.SockaddrLinklayer{Protocol: htons(syscall.ETH_P_ALL), Ifindex: ifi.Index}),
		syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv),
	); err != nil {
		_ = d.sock.close()
		return fmt.Errorf("portio: afpacket bind %q: %w", d.cfg.Interface, err)
	}
	d.start(ing, defaultQueueDepth, d.writeWire)
	return nil
}

// writeWire sends one egress batch out the interface (writer goroutine
// only), each frame addressed to its own destination MAC.
func (d *AFPacketDriver) writeWire(frames [][]byte) {
	for i, f := range frames {
		sll := &d.tx.names[i]
		*sll = syscall.RawSockaddrLinklayer{Family: syscall.AF_PACKET, Protocol: htons(syscall.ETH_P_ALL), Ifindex: int32(d.ifindex), Halen: 6}
		copy(sll.Addr[:6], f)
		d.tx.set(i, f, unsafe.Pointer(sll), syscall.SizeofSockaddrLinklayer)
	}
	d.sock.send(d.tx, frames, &d.st)
}
