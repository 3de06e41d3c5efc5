package portio

import (
	"fmt"
	"strconv"
	"strings"
)

// ParsePort parses one "-port" flag value of the form N=driver:args
// into a port number and an unopened driver:
//
//	N=udp:LADDR         UDP, bind LADDR, receive-only until SetPeer
//	N=udp:LADDR/RADDR   UDP, bind LADDR, egress to RADDR
//	N=tcp:ADDR          TCP, dial ADDR (length-prefixed, reconnects)
//	N=tcp-listen:ADDR   TCP, listen on ADDR, accept one peer at a time
//	N=afpacket:IFACE    raw AF_PACKET socket on IFACE (linux, CAP_NET_RAW)
func ParsePort(spec string) (int, PortDriver, error) {
	eq := strings.IndexByte(spec, '=')
	if eq < 0 {
		return 0, nil, fmt.Errorf("portio: port spec %q: want N=driver:args", spec)
	}
	port, err := strconv.Atoi(strings.TrimSpace(spec[:eq]))
	if err != nil || port < 0 {
		return 0, nil, fmt.Errorf("portio: port spec %q: bad port number", spec)
	}
	drv, args, _ := strings.Cut(spec[eq+1:], ":")
	switch drv {
	case "udp":
		laddr, raddr, _ := strings.Cut(args, "/")
		if laddr == "" {
			return 0, nil, fmt.Errorf("portio: port spec %q: udp needs a listen address", spec)
		}
		return port, NewUDP(UDPConfig{Listen: laddr, Peer: raddr}), nil
	case "tcp":
		if args == "" {
			return 0, nil, fmt.Errorf("portio: port spec %q: tcp needs an address", spec)
		}
		return port, NewTCP(TCPConfig{Addr: args}), nil
	case "tcp-listen":
		if args == "" {
			return 0, nil, fmt.Errorf("portio: port spec %q: tcp-listen needs an address", spec)
		}
		return port, NewTCP(TCPConfig{Addr: args, Listen: true}), nil
	case "afpacket":
		if args == "" {
			return 0, nil, fmt.Errorf("portio: port spec %q: afpacket needs an interface", spec)
		}
		return port, NewAFPacket(AFPacketConfig{Interface: args}), nil
	default:
		return 0, nil, fmt.Errorf("portio: port spec %q: unknown driver %q (udp, tcp, tcp-listen, afpacket)", spec, drv)
	}
}

// PortSpec is one parsed -port flag: the port, its original spec text,
// and the unopened driver built from it.
type PortSpec struct {
	Port   int
	Spec   string
	Driver PortDriver
}

// PortFlags is a repeatable flag.Value collecting port specs:
//
//	-port 2=udp:127.0.0.1:7002/127.0.0.1:7102 -port 3=tcp:10.0.0.2:7103
type PortFlags struct {
	Ports []PortSpec
}

// String implements flag.Value.
func (f *PortFlags) String() string {
	specs := make([]string, len(f.Ports))
	for i, p := range f.Ports {
		specs[i] = p.Spec
	}
	return strings.Join(specs, ",")
}

// Set implements flag.Value, parsing and validating one spec.
func (f *PortFlags) Set(s string) error {
	port, d, err := ParsePort(s)
	if err != nil {
		return err
	}
	for _, p := range f.Ports {
		if p.Port == port {
			return fmt.Errorf("portio: duplicate -port for port %d", port)
		}
	}
	f.Ports = append(f.Ports, PortSpec{Port: port, Spec: s, Driver: d})
	return nil
}
