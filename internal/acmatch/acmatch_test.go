package acmatch

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBasicMatching(t *testing.T) {
	m := New([]string{"he", "she", "his", "hers"})
	for text, want := range map[string]bool{
		"ushers": true, // she, he and hers all end inside
		"this":   true, // his
		"hs":     false,
		"h e":    false,
	} {
		if got := m.Contains([]byte(text)); got != want {
			t.Errorf("Contains(%q) = %v, want %v", text, got, want)
		}
	}
}

func TestContains(t *testing.T) {
	m := New([]string{"UNION SELECT", "DROP TABLE"})
	if !m.Contains([]byte("GET /?q=1 UNION SELECT pw FROM t")) {
		t.Fatal("missed SQL injection")
	}
	if m.Contains([]byte("GET /index.html HTTP/1.1")) {
		t.Fatal("false positive")
	}
}

// A pattern reachable only through a failure link ("bcd" after the
// automaton has walked "abc") must still be found.
func TestOverlappingPatterns(t *testing.T) {
	m := New([]string{"abce", "bcd"})
	if !m.Contains([]byte("abcd")) {
		t.Fatal("missed bcd behind the abc prefix")
	}
	if m.Contains([]byte("abcx")) {
		t.Fatal("matched a proper prefix")
	}
}

func TestEmptyAndEdgeCases(t *testing.T) {
	m := New(nil)
	if m.Contains([]byte("anything")) {
		t.Fatal("empty matcher matched")
	}
	m = New([]string{"", "x"})
	if !m.Contains([]byte("x")) {
		t.Fatal("missed single byte pattern")
	}
	if m.Contains(nil) {
		t.Fatal("matched empty input")
	}
}

// Property: Contains agrees with strings.Contains for every pattern.
func TestAgainstStringsContains(t *testing.T) {
	f := func(text []byte, p1, p2 uint8) bool {
		pats := []string{
			string([]byte{p1}),
			string([]byte{p1, p2}),
			"abc",
		}
		m := New(pats)
		want := false
		for _, p := range pats {
			if p != "" && strings.Contains(string(text), p) {
				want = true
			}
		}
		return m.Contains(text) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkContainsHTTPPayload(b *testing.B) {
	m := New([]string{
		"UNION SELECT", "' OR '1'='1", "DROP TABLE", "/etc/passwd",
		"<script>alert(", "cmd.exe", "xp_cmdshell",
	})
	payload := []byte("GET /products?id=42&sort=price HTTP/1.1\r\nHost: shop.example.com\r\nUser-Agent: test\r\nAccept: */*\r\n\r\n" + strings.Repeat("benign body content ", 40))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m.Contains(payload) {
			b.Fatal("unexpected match")
		}
	}
}
