//go:build !race

package control_test

// Allocation budget of the flow-removed send path. Excluded under the
// race detector, whose instrumentation changes allocation behavior.

import (
	"context"
	"net"
	"testing"
	"time"

	"sdnfv/internal/control"
	"sdnfv/internal/flowtable"
)

// sinkConn is a net.Conn that accepts every write and whose reads block
// until it is closed.
type sinkConn struct {
	net.Conn
	closed chan struct{}
}

func (c *sinkConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}

func (c *sinkConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *sinkConn) Close() error                     { close(c.closed); return nil }
func (c *sinkConn) SetReadDeadline(time.Time) error  { return nil }
func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }

// TestNotifyFlowRemovedNoAllocs: once warm, the client frames a sweep's
// eviction notices in storage it keeps, so a notice allocates nothing
// however many removals it carries.
func TestNotifyFlowRemovedNoAllocs(t *testing.T) {
	c, err := control.NewClientAs(&sinkConn{closed: make(chan struct{})}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	removals := make([]control.FlowRemoved, 512)
	for i := range removals {
		removals[i] = control.FlowRemoved{Scope: 1, Match: flowtable.ExactMatch(testKey(uint16(i))), RuleID: uint64(i)}
	}
	ctx := context.Background()
	if err := c.NotifyFlowRemoved(ctx, removals); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() { _ = c.NotifyFlowRemoved(ctx, removals) }); allocs != 0 {
		t.Fatalf("NotifyFlowRemoved of %d removals: %v allocs per call", len(removals), allocs)
	}
}
