package packet

import (
	"testing"
	"testing/quick"
)

func buildUDP(t *testing.T, payload []byte) []byte {
	t.Helper()
	b := Builder{
		SrcMAC: MAC{1, 2, 3, 4, 5, 6}, DstMAC: MAC{7, 8, 9, 10, 11, 12},
		SrcIP: IPv4(10, 0, 0, 1), DstIP: IPv4(10, 0, 0, 2),
		SrcPort: 1234, DstPort: 80, Proto: ProtoUDP,
	}
	buf := make([]byte, 2048)
	n, err := b.Build(buf, payload)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return buf[:n]
}

func TestBuildParseUDPRoundtrip(t *testing.T) {
	payload := []byte("hello sdnfv")
	frame := buildUDP(t, payload)
	wantLen := EthHeaderLen + IPv4HeaderLen + UDPHeaderLen + len(payload)
	if len(frame) != wantLen {
		t.Fatalf("frame len = %d, want %d", len(frame), wantLen)
	}
	v, err := Parse(frame)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !v.Valid() {
		t.Fatal("view should be valid")
	}
	if got := v.SrcIP(); got != IPv4(10, 0, 0, 1) {
		t.Errorf("SrcIP = %s", got)
	}
	if got := v.DstIP(); got != IPv4(10, 0, 0, 2) {
		t.Errorf("DstIP = %s", got)
	}
	if v.SrcPort() != 1234 || v.DstPort() != 80 {
		t.Errorf("ports = %d,%d", v.SrcPort(), v.DstPort())
	}
	if v.Proto() != ProtoUDP {
		t.Errorf("Proto = %d", v.Proto())
	}
	if string(v.Payload()) != string(payload) {
		t.Errorf("payload = %q", v.Payload())
	}
	if !v.VerifyIPChecksum() {
		t.Error("builder produced bad IP checksum")
	}
	if mac := MAC(frame[6:12]); mac.String() != "01:02:03:04:05:06" {
		t.Errorf("source MAC = %s", mac)
	}
}

func TestBuildParseTCPRoundtrip(t *testing.T) {
	b := Builder{
		SrcIP: IPv4(192, 168, 1, 1), DstIP: IPv4(192, 168, 1, 2),
		SrcPort: 443, DstPort: 55555, Proto: ProtoTCP, TTL: 7,
	}
	buf := make([]byte, 256)
	payload := []byte("HTTP/1.1 200 OK\r\n")
	n, err := b.Build(buf, payload)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Parse(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if v.Proto() != ProtoTCP {
		t.Fatalf("Proto = %d", v.Proto())
	}
	if ttl := buf[EthHeaderLen+8]; ttl != 7 {
		t.Fatalf("TTL = %d", ttl)
	}
	if string(v.Payload()) != string(payload) {
		t.Fatalf("payload = %q", v.Payload())
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(make([]byte, 5)); err != ErrTooShort {
		t.Errorf("short frame: %v", err)
	}
	frame := buildUDP(t, nil)
	frame[12], frame[13] = 0x86, 0xDD // EtherType IPv6
	if _, err := Parse(frame); err != ErrNotIPv4 {
		t.Errorf("non-IPv4: %v", err)
	}
	frame = buildUDP(t, nil)
	frame[EthHeaderLen] = 0x65 // version 6
	if _, err := Parse(frame); err != ErrBadVersion {
		t.Errorf("bad version: %v", err)
	}
	frame = buildUDP(t, nil)
	frame[EthHeaderLen+9] = 47 // GRE
	if _, err := Parse(frame); err != ErrBadProtocol {
		t.Errorf("bad proto: %v", err)
	}
}

func TestRewriteAndChecksum(t *testing.T) {
	frame := buildUDP(t, []byte("x"))
	v, _ := Parse(frame)
	v.SetDstIP(IPv4(1, 2, 3, 4))
	v.SetDstPort(11211)
	if v.VerifyIPChecksum() {
		t.Fatal("checksum should be stale after rewrite")
	}
	v.UpdateChecksums()
	if !v.VerifyIPChecksum() {
		t.Fatal("checksum should verify after update")
	}
	v2, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if v2.DstIP() != IPv4(1, 2, 3, 4) || v2.DstPort() != 11211 {
		t.Fatal("rewrite not visible on reparse")
	}
}

// TestFlowKeyHashProperties: equal keys hash equal; distinct keys rarely
// collide; hash is deterministic.
func TestFlowKeyHashProperties(t *testing.T) {
	f := func(a, b FlowKey) bool {
		if a == b {
			return a.Hash() == b.Hash()
		}
		// Different keys may collide, but determinism must hold.
		return a.Hash() == a.Hash() && b.Hash() == b.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Smoke-test distribution: sequential ports should spread.
	seen := make(map[uint64]bool)
	for p := uint16(0); p < 1000; p++ {
		k := FlowKey{SrcIP: IPv4(10, 0, 0, 1), DstIP: IPv4(10, 0, 0, 2), SrcPort: p, DstPort: 80, Proto: ProtoUDP}
		seen[k.Hash()] = true
	}
	if len(seen) < 1000 {
		t.Fatalf("hash collisions among 1000 sequential keys: %d distinct", len(seen))
	}
}

func TestIPString(t *testing.T) {
	if got := IPv4(192, 168, 0, 1).String(); got != "192.168.0.1" {
		t.Fatalf("IP.String = %q", got)
	}
	k := FlowKey{SrcIP: IPv4(1, 2, 3, 4), DstIP: IPv4(5, 6, 7, 8), SrcPort: 9, DstPort: 10, Proto: 17}
	if got := k.String(); got != "17 1.2.3.4:9->5.6.7.8:10" {
		t.Fatalf("FlowKey.String = %q", got)
	}
}

func TestBuilderBufferTooSmall(t *testing.T) {
	b := Builder{Proto: ProtoUDP}
	if _, err := b.Build(make([]byte, 10), []byte("payload")); err == nil {
		t.Fatal("Build into tiny buffer should fail")
	}
	b.Proto = 99
	if _, err := b.Build(make([]byte, 2048), nil); err != ErrBadProtocol {
		t.Fatalf("unknown proto: %v", err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example-style vector: checksum of a buffer containing its
	// own checksum is zero.
	frame := buildUDP(t, []byte("abcd"))
	v, _ := Parse(frame)
	if !v.VerifyIPChecksum() {
		t.Fatal("fresh packet must verify")
	}
	frame[EthHeaderLen+8]-- // TTL
	if v.VerifyIPChecksum() {
		t.Fatal("TTL change must break checksum")
	}
}

func BenchmarkParse(b *testing.B) {
	frame := make([]byte, 2048)
	bd := Builder{SrcIP: IPv4(10, 0, 0, 1), DstIP: IPv4(10, 0, 0, 2), SrcPort: 1, DstPort: 2, Proto: ProtoUDP}
	n, _ := bd.Build(frame, make([]byte, 968))
	frame = frame[:n]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, _ := Parse(frame)
		_ = v.FlowKey()
	}
}

func BenchmarkFlowKeyHash(b *testing.B) {
	k := FlowKey{SrcIP: IPv4(10, 0, 0, 1), DstIP: IPv4(10, 0, 0, 2), SrcPort: 1234, DstPort: 80, Proto: 6}
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= k.Hash()
	}
	_ = sink
}
