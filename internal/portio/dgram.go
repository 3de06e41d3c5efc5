package portio

import "runtime"

// dgramPort is the pump both datagram drivers (UDPDriver,
// AFPacketDriver) share. The RX goroutine owns a plain blocking socket
// and sits in one recvmmsg(MSG_WAITFORONE) over preallocated headers:
// it blocks in the kernel for the first datagram, then takes what else
// is queued, up to a burst, without waiting, so it wakes with the
// datagram, not on the Go netpoller's next turn. The egress writer
// sends what is queued, up to a burst, with one sendmmsg. Off linux the
// same loop runs one recvfrom/sendto per message (dgram_other.go).
type dgramPort struct {
	portBase
	sock dgramSock
	tx   *msgVec // the egress writer's headers
}

// start launches the egress writer and the RX pump on p.sock.
func (p *dgramPort) start(ing Ingress, burst, depth int, write func([][]byte)) {
	burst = positiveOr(burst, defaultBurst)
	p.tx = newMsgVec(burst, 0)
	p.startEgress(ing, burst, depth, write)
	p.wg.Add(1)
	// One byte of headroom per buffer: a datagram that fills cap+1
	// bytes was too big for the pool, not one that exactly fit.
	go p.rxLoop(newMsgVec(burst, ing.FrameCap()+1))
}

// rxLoop is the RX pump: one blocking burst read, then one offer of
// the burst's frames into the host.
func (p *dgramPort) rxLoop(v *msgVec) {
	defer p.wg.Done()
	fcap := p.ing.FrameCap()
	frames := make([][]byte, 0, len(v.bufs))
	for {
		n, err := p.sock.recv(v)
		// Close shuts the socket down to wake this read, which then
		// fails or returns one empty message: neither is a frame.
		if p.closed.Load() {
			return
		}
		if err != nil {
			continue
		}
		frames = frames[:0]
		for i := 0; i < n; i++ {
			switch f, own := v.frame(i); {
			case own: // the socket's own transmission, looped back
			case len(f) > fcap:
				p.st.rxOversize.Add(1)
			default:
				p.st.countRx(len(f))
				frames = append(frames, f)
			}
		}
		if len(frames) > 0 {
			p.offer(frames)
		}
		// Yield before the next read: the engine drains this burst while
		// the next one queues, so under load the read seldom sleeps.
		runtime.Gosched()
	}
}

// Close implements PortDriver: flush queued egress onto the wire, shut
// the socket down to wake the RX pump, join it, and only then close the
// fd — a fd closed under a blocked reader could be reused while the
// pump still reads it.
func (p *dgramPort) Close() error {
	if !p.closed.CompareAndSwap(false, true) || p.q == nil {
		return nil
	}
	p.q.close()
	p.sock.shutdown()
	p.wg.Wait()
	return p.sock.close()
}
