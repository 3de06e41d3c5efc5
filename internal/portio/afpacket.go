package portio

// AFPacketConfig configures the linux AF_PACKET driver: a raw socket
// bound to one interface, so a host port faces a real TAP/veth/NIC
// wire. The driver's socket lives behind a linux build tag
// (afpacket_linux.go); on other platforms Open fails.
type AFPacketConfig struct {
	// Interface is the interface name to bind ("veth0", "tap0", "lo").
	Interface string
}

// AFPacketDriver is a raw AF_PACKET socket bound to one interface:
// every frame the kernel sees on the wire (except the socket's own
// transmissions, filtered by PACKET_OUTGOING) is pumped into the host,
// and each egress batch goes out with one sendmmsg, every frame
// addressed to the destination MAC it carries. It runs on the shared
// datagram pump (dgramPort). Needs CAP_NET_RAW (or root); Open reports
// the permission error otherwise.
type AFPacketDriver struct {
	dgramPort
	cfg     AFPacketConfig
	ifindex int
}

// NewAFPacket builds an unopened AF_PACKET driver.
func NewAFPacket(cfg AFPacketConfig) *AFPacketDriver { return &AFPacketDriver{cfg: cfg} }

// Name implements PortDriver.
func (d *AFPacketDriver) Name() string { return "afpacket" }
