package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"sdnfv/internal/app"
	"sdnfv/internal/control"
	"sdnfv/internal/controller"
	"sdnfv/internal/dataplane"
	"sdnfv/internal/flowtable"
	"sdnfv/internal/graph"
	"sdnfv/internal/nf"
	"sdnfv/internal/nfs"
	"sdnfv/internal/packet"
	"sdnfv/internal/portio"
)

const (
	svcFirewall flowtable.ServiceID = 1
	svcIDS      flowtable.ServiceID = 2
	svcScrubber flowtable.ServiceID = 3 // named by the IDS, never reached: all payloads are benign

	portIn  = 0
	portOut = 1

	poolSize = 4096
	ringSize = 1024
)

// egress is the measuring end of the system: the host's egress sink (or,
// for wire_udp, the harness's receive loop) hands it every delivered
// frame. Only that one goroutine writes lat and n; the generator reads
// them after it has seen delivered reach what it sent.
type egress struct {
	base      time.Time
	delivered atomic.Uint64
	bad       atomic.Uint64 // frames that came back without the bytes they were sent with
	recording atomic.Bool   // open-loop phase: keep one latency sample per frame
	lat       []int64
	n         int
}

func (e *egress) now() int64 { return int64(time.Since(e.base)) }

func (e *egress) frame(data []byte) {
	if len(data) < minFrame || binary.BigEndian.Uint32(data[offMagic:]) != stampMagic {
		e.bad.Add(1)
	} else if e.recording.Load() {
		d := e.now() - int64(binary.BigEndian.Uint64(data[offStamp:]))
		if d < 0 || d > int64(time.Minute) {
			e.bad.Add(1)
		} else if e.n < len(e.lat) {
			e.lat[e.n] = d
			e.n++
		}
	}
	e.delivered.Add(1)
}

// noticeCounter passes the control channel through and counts the
// flow-removed notices it refused to carry. The host drops that error
// (notices are advisory), so without this count a refused batch would be
// indistinguishable from a notice delivered twice or never sent: the
// gate checks delivered + refused == evictions, and the count is
// reported so that a refusal is seen.
type noticeCounter struct {
	control.Southbound
	refused atomic.Uint64
}

func (n *noticeCounter) NotifyFlowRemoved(ctx context.Context, removals []control.FlowRemoved) error {
	err := n.Southbound.NotifyFlowRemoved(ctx, removals)
	if err != nil {
		n.refused.Add(uint64(len(removals)))
	}
	return err
}

// hostPort adapts one host port to the driver's ingress seam.
type hostPort struct {
	h    *dataplane.Host
	port int
}

func (p hostPort) Ingest(frame []byte) error          { return p.h.Ingest(p.port, frame) }
func (p hostPort) IngestBurst(fs [][]byte) (int, int) { return p.h.IngestBurst(p.port, fs) }
func (p hostPort) FrameCap() int                      { return p.h.FrameCap() }

// system is one booted instance of the program under test plus the
// harness's two ends of it: offer (ingress) and out (egress).
type system struct {
	w     *workload
	host  *dataplane.Host
	insts []*dataplane.Instance
	out   *egress
	tr    *tracer // nil in untraced runs

	ingress portio.Ingress // the host's port, traced or not

	// flow_setup
	app    *app.App
	ctl    *controller.Controller
	client *control.Client
	notice *noticeCounter
	ln     net.Listener
	served chan struct{}

	// wire_udp
	drv    *portio.UDPDriver
	sock   int // the harness's end of the wire; valid while rxDone is not nil
	rxStop atomic.Bool
	rxDone chan struct{}

	refused    uint64  // frames the ingress did not take
	heapBooted float64 // heap with the host built and no rule installed
}

func chainGraph() (*graph.Graph, error) {
	return graph.Chain("chain",
		graph.Vertex{Service: svcFirewall, Name: "firewall"},
		graph.Vertex{Service: svcIDS, Name: "ids"})
}

// boot builds and starts the system for w. Resident rules are installed
// before Start, as a deployment would pre-populate them.
func boot(w *workload, seed uint64, tr *tracer, latCap int) (*system, error) {
	s := &system{w: w, tr: tr, out: &egress{base: time.Now(), lat: make([]int64, latCap)}}
	if err := s.start(seed); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *system) start(seed uint64) error {
	w, tr := s.w, s.tr
	g, err := chainGraph()
	if err != nil {
		return err
	}
	s.app = app.New(app.Config{IngressPort: portIn, EgressPort: s.egressPort()})
	if err := s.app.RegisterGraph(g); err != nil {
		return err
	}

	cfg := dataplane.Config{
		PoolSize: poolSize, RingSize: ringSize, TXThreads: 1,
		FlowIdleTimeout: w.idle, FlowSweepInterval: w.sweep,
	}
	if w.controller {
		sb, err := s.startController()
		if err != nil {
			return err
		}
		cfg.Control = sb
	}
	s.host = dataplane.NewHost(cfg)

	// A short deny list in front of default-allow: every packet walks it
	// and none matches, which is what a firewall mostly does.
	fw := nf.BatchFunction(&nfs.Firewall{DefaultAllow: true, Rules: []nfs.FirewallRule{
		{Match: flowtable.MatchSrcIP(packet.IPv4(192, 0, 2, 1))},
		{Match: flowtable.MatchSrcIP(packet.IPv4(192, 0, 2, 2))},
		{Match: flowtable.MatchDstIP(packet.IPv4(198, 51, 100, 1))},
		{Match: flowtable.MatchDstIP(packet.IPv4(203, 0, 113, 1))},
	}})
	ids := nf.BatchFunction(&nfs.IDS{Matcher: nfs.DefaultIDSSignatures(), Scrubber: svcScrubber})
	if tr != nil {
		fw = &tracedNF{BatchFunction: fw, tr: tr, timer: &tr.firewall, name: "nf.firewall"}
		ids = &tracedNF{BatchFunction: ids, tr: tr, timer: &tr.ids, name: "nf.ids"}
	}
	for _, reg := range []struct {
		svc flowtable.ServiceID
		fn  nf.BatchFunction
	}{{svcFirewall, fw}, {svcIDS, ids}} {
		inst, err := s.host.AddNF(reg.svc, reg.fn, 0)
		if err != nil {
			return err
		}
		s.insts = append(s.insts, inst)
	}

	s.heapBooted = heapAlloc()
	if err := s.installResident(g, seed); err != nil {
		return err
	}
	if err := s.host.Start(); err != nil {
		return err
	}

	s.ingress = hostPort{h: s.host, port: portIn}
	if tr != nil {
		s.ingress = &tracedIngress{Ingress: s.ingress, tr: tr}
	}
	if w.wire {
		if err := s.openWire(); err != nil {
			return err
		}
	} else {
		s.host.BindIngress(portIn)
		s.host.BindPort(portOut, func(_ int, data []byte, _ *dataplane.Desc) { s.out.frame(data) })
	}
	return nil
}

// egressPort is where the chain transmits: wire_udp uses one
// bidirectional port, like a NIC; the in-process workloads keep the
// generator and the sink on separate ports.
func (s *system) egressPort() int {
	if s.w.wire {
		return portIn
	}
	return portOut
}

// installResident pre-populates the table: per-flow exact rules at every
// hop (what app.CompileFlow would install one flow at a time), or exact
// rules at the ingress scope over shared wildcard hops.
func (s *system) installResident(g *graph.Graph, seed uint64) error {
	w := s.w
	var rules []flowtable.Rule
	if w.flows > 0 && !w.exactHops {
		hops, err := g.Rules(portIn, s.egressPort())
		if err != nil {
			return err
		}
		for _, r := range hops {
			if !r.Scope.IsPort() {
				rules = append(rules, r)
			}
		}
	}
	for i := 0; i < w.flows; i++ {
		key := residentKey(seed, i)
		if w.exactHops {
			flow, err := s.app.CompileRules(flowtable.Port(portIn), key, true)
			if err != nil {
				return err
			}
			rules = append(rules, flow...)
			continue
		}
		rules = append(rules, flowtable.Rule{
			Scope:   flowtable.Port(portIn),
			Match:   flowtable.ExactMatch(key),
			Actions: []flowtable.Action{flowtable.Forward(svcFirewall)},
		})
	}
	if len(rules) == 0 {
		return nil
	}
	_, err := s.host.Table().AddBatch(rules)
	return err
}

// startController brings up app <- controller <- TCP loopback <- client,
// the whole hierarchy a miss crosses, and returns the client end.
func (s *system) startController() (control.Southbound, error) {
	nb := control.Northbound(s.app)
	if s.tr != nil {
		nb = &tracedNorthbound{Northbound: nb, tr: s.tr}
	}
	s.ctl = controller.New(controller.Config{Workers: 4})
	s.ctl.SetNorthbound(nb)
	s.ctl.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.ctl.Serve(ln) // returns when close() closes the listener
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.client, err = control.DialAs(ctx, ln.Addr().String(), 1)
	if err != nil {
		return nil, err
	}
	s.notice = &noticeCounter{Southbound: s.client}
	if s.tr != nil {
		return &tracedSouthbound{Southbound: s.notice, tr: s.tr}, nil
	}
	return s.notice, nil
}

// openWire puts a UDPDriver behind the port and connects the harness's
// own socket to it: the generator writes datagrams into the driver's RX
// pump, and the driver's egress writer sends them back to the same
// socket, where the receive loop below is the sink.
//
// The harness's socket is a plain blocking one, read by a goroutine that
// sits in the system call. A net.UDPConn would park its reader in the Go
// network poller, which on two cores kept busy by the engine's polling
// threads is only visited every few milliseconds; that wait would be the
// instrument's, not the driver's, and it must not be in the latency.
func (s *system) openWire() error {
	s.drv = portio.NewUDP(portio.UDPConfig{Listen: "127.0.0.1:0", QueueDepth: ringSize})
	s.host.BindIngress(portIn)
	if err := s.drv.Open(s.ingress); err != nil {
		return err
	}
	sink := s.drv.Sink()
	if s.tr != nil {
		sink = tracedSink(s.tr, sink)
	}
	s.host.BindPort(portIn, sink)
	s.host.RegisterPortStats(portIn, s.drv.Name(), s.drv.Stats)

	loopback := [4]byte{127, 0, 0, 1}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return fmt.Errorf("harness socket: %w", err)
	}
	// The receive timeout is how the loop notices it should stop.
	wake := syscall.Timeval{Usec: 50_000}
	err = errors.Join(
		syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &wake),
		syscall.Bind(fd, &syscall.SockaddrInet4{Addr: loopback}),
		syscall.Connect(fd, &syscall.SockaddrInet4{Addr: loopback, Port: s.drv.LocalAddr().(*net.UDPAddr).Port}),
	)
	local, nameErr := syscall.Getsockname(fd)
	if err = errors.Join(err, nameErr); err == nil {
		err = s.drv.SetPeer(fmt.Sprintf("127.0.0.1:%d", local.(*syscall.SockaddrInet4).Port))
	}
	if err != nil {
		_ = syscall.Close(fd)
		return fmt.Errorf("harness socket: %w", err)
	}
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, 1<<20) // best effort, as the driver does
	s.sock, s.rxDone = fd, make(chan struct{})
	go func() {
		defer close(s.rxDone)
		buf := make([]byte, s.host.FrameCap())
		for !s.rxStop.Load() {
			if n, err := syscall.Read(fd, buf); err == nil {
				s.out.frame(buf[:n])
			}
		}
	}()
	return nil
}

// offer hands one burst to the system's ingress and returns how many
// frames it took. The windows are sized so that it takes them all; a
// frame it does not take is counted and never re-sent.
func (s *system) offer(frames [][]byte) int {
	taken := 0
	if s.rxDone != nil {
		for _, f := range frames {
			if _, err := syscall.Write(s.sock, f); err == nil {
				taken++
			}
		}
	} else {
		taken, _ = s.ingress.IngestBurst(frames)
	}
	s.refused += uint64(len(frames) - taken)
	return taken
}

// lost counts frames the program itself says it dropped, at the host or
// at the driver boundary. It is too slow for the send loop and is only
// asked when deliveries stop coming.
func (s *system) lost() uint64 {
	st := s.host.Stats()
	n := st.Drops + st.Overflows + st.TxDrops + st.RxDrops
	for _, p := range st.Ports {
		n += p.TxDrops + p.RxOversize + p.RxTruncated
	}
	return n
}

// quiesce waits until nothing is in flight.
func (s *system) quiesce() error {
	if !s.host.WaitIdle(5 * time.Second) {
		return fmt.Errorf("host still has %d buffers in use after 5 s", s.host.Stats().Pool.InUse)
	}
	return nil
}

// close stops everything boot started, in drain order, and waits for
// each goroutine to end.
func (s *system) close() {
	if s.host != nil {
		s.host.Stop()
	}
	if s.drv != nil {
		s.host.BindPort(portIn, nil)
		s.host.UnbindIngress(portIn)
		_ = s.drv.Close()
	}
	if s.rxDone != nil {
		s.rxStop.Store(true)
		<-s.rxDone
		_ = syscall.Close(s.sock)
	}
	if s.client != nil {
		_ = s.client.Close()
	}
	if s.ln != nil {
		_ = s.ln.Close()
		<-s.served
	}
	if s.ctl != nil {
		s.ctl.Stop()
	}
}
