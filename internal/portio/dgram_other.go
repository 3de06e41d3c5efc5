//go:build !linux

package portio

import "net"

// Off linux the datagram pump runs over the net.UDPConn itself, one
// recvfrom and one sendto per message: the same loop, bursts of one.
type dgramSock struct{ conn *net.UDPConn }

type udpPeer = net.UDPAddr

type msgVec struct {
	bufs [][]byte
	n    int
}

func newMsgVec(_, size int) *msgVec { return &msgVec{bufs: [][]byte{make([]byte, size)}} }

func (v *msgVec) frame(int) ([]byte, bool) { return v.bufs[0][:v.n], false }

func udpSock(conn *net.UDPConn) (dgramSock, error)        { return dgramSock{conn}, nil }
func (s dgramSock) peer(a *net.UDPAddr) (*udpPeer, error) { return a, nil }

func (s dgramSock) recv(v *msgVec) (n int, err error) {
	if v.n, _, err = s.conn.ReadFromUDP(v.bufs[0]); err != nil {
		return 0, err
	}
	return 1, nil
}

func (s dgramSock) sendTo(_ *msgVec, frames [][]byte, p *udpPeer, st *counters) {
	for _, f := range frames {
		if _, err := s.conn.WriteToUDP(f, p); err != nil {
			st.txDrop()
			continue
		}
		st.countTx(len(f))
	}
}

// shutdown wakes the reader: a net.UDPConn may be closed under it.
func (s dgramSock) shutdown()    { _ = s.conn.Close() }
func (s dgramSock) close() error { return nil }
