package portio

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"
)

// recordIngress keeps a copy of every frame the driver delivers, in
// order.
type recordIngress struct {
	mu     sync.Mutex
	frames [][]byte
}

func (r *recordIngress) IngestBurst(fs [][]byte) (int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range fs {
		r.frames = append(r.frames, bytes.Clone(f))
	}
	return len(fs), len(fs)
}

func (r *recordIngress) FrameCap() int { return 128 }

// decodeTCPFrames is the reference reader of the 4-byte length-prefixed
// stream: the frames up to the cap, the oversize prefixes skipped, and
// whether the stream ended cut or desynced (at most one truncation).
func decodeTCPFrames(data []byte, fcap int) (frames [][]byte, oversize, truncated uint64) {
	for len(data) > 0 {
		if len(data) < 4 {
			return frames, oversize, 1 // cut inside a prefix
		}
		n := int(binary.BigEndian.Uint32(data))
		data = data[4:]
		if n > maxTCPFrame {
			return frames, oversize, 1 // desynced
		}
		if n > fcap {
			oversize++
		}
		if len(data) < n {
			return frames, oversize, 1 // cut inside a frame
		}
		if n <= fcap {
			frames = append(frames, data[:n])
		}
		data = data[n:]
	}
	return frames, oversize, 0
}

// FuzzTCPFrames writes arbitrary bytes to a listening TCPDriver over
// loopback, closes the connection, and checks the driver against
// decodeTCPFrames: every whole frame within the cap arrives in order,
// each oversize prefix counts in RxOversize, and a cut or desynced
// stream counts in RxTruncated.
func FuzzTCPFrames(f *testing.F) {
	prefixed := func(frames ...[]byte) []byte {
		var b []byte
		for _, fr := range frames {
			b = binary.BigEndian.AppendUint32(b, uint32(len(fr)))
			b = append(b, fr...)
		}
		return b
	}
	f.Add(prefixed([]byte("hello")))
	f.Add(prefixed(make([]byte, 500), []byte("after-oversize")))
	f.Add(append(binary.BigEndian.AppendUint32(nil, 50), make([]byte, 10)...))
	f.Add(prefixed([]byte("post-reconnect"))[:7])
	f.Add(append(prefixed([]byte("before-desync")), binary.BigEndian.AppendUint32(nil, 1<<24)...))
	f.Add(prefixed(nil, []byte("x")))

	f.Fuzz(func(t *testing.T, data []byte) {
		ing := &recordIngress{}
		d := NewTCP(TCPConfig{Addr: "127.0.0.1:0", Listen: true, BackoffMin: 2 * time.Millisecond})
		if err := d.Open(ing); err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		dial := func() net.Conn {
			c, err := net.Dial("tcp", d.LocalAddr().String())
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		c := dial()
		c.SetWriteDeadline(time.Now().Add(5 * time.Second))
		c.Write(data) // a desynced stream may be reset before all of it is written
		c.Close()
		// The driver serves one peer at a time: once it accepts a second,
		// it has finished reading the first.
		c2 := dial()
		defer c2.Close()
		deadline := time.Now().Add(5 * time.Second)
		for d.Stats().Reconnects == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("driver never finished reading the stream: %+v", d.Stats())
			}
			time.Sleep(100 * time.Microsecond)
		}

		want, oversize, truncated := decodeTCPFrames(data, ing.FrameCap())
		st := d.Stats()
		if st.RxOversize != oversize || st.RxTruncated != truncated || st.RxFrames != uint64(len(want)) {
			t.Fatalf("stats %+v, want rxFrames=%d rxOversize=%d rxTruncated=%d", st, len(want), oversize, truncated)
		}
		ing.mu.Lock()
		defer ing.mu.Unlock()
		if len(ing.frames) != len(want) {
			t.Fatalf("delivered %d frames, want %d", len(ing.frames), len(want))
		}
		for i := range want {
			if !bytes.Equal(ing.frames[i], want[i]) {
				t.Fatalf("frame %d = %x, want %x", i, ing.frames[i], want[i])
			}
		}
	})
}
