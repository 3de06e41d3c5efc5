//go:build !linux

package portio

import "errors"

// Open implements PortDriver; AF_PACKET sockets are linux-only.
func (d *AFPacketDriver) Open(Ingress) error {
	return errors.New("portio: afpacket driver requires linux")
}
