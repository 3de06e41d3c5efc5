// Package acmatch implements Aho–Corasick multi-pattern string matching.
// It is the payload-scanning substrate for the IDS network function: one
// automaton pass over a packet payload tells whether any signature occurs,
// which is what lets the IDS keep up with the data plane.
package acmatch

// node is one trie state. Children are a dense 256-way table for scan
// speed; the automata built here are small (IDS signature sets), so the
// memory trade-off is acceptable.
type node struct {
	next [256]int32 // 0 = no edge (state 0 is the root; see build)
	fail int32
	// match marks a state at which some pattern ends, directly or
	// through its failure chain.
	match bool
}

// Matcher is an immutable Aho–Corasick automaton. Build with New;
// Contains is safe for concurrent use.
type Matcher struct {
	nodes []node
}

// New compiles the automaton for the given patterns. Empty patterns are
// ignored. The automaton is case-sensitive; callers wanting
// case-insensitive matching should normalize both patterns and input.
func New(patterns []string) *Matcher {
	m := &Matcher{nodes: make([]node, 1, 64)}
	for _, p := range patterns {
		if len(p) == 0 {
			continue
		}
		cur := int32(0)
		for j := 0; j < len(p); j++ {
			c := p[j]
			nxt := m.nodes[cur].next[c]
			if nxt == 0 {
				m.nodes = append(m.nodes, node{})
				nxt = int32(len(m.nodes) - 1)
				m.nodes[cur].next[c] = nxt
			}
			cur = nxt
		}
		m.nodes[cur].match = true
	}
	// BFS to set failure links and convert the trie to a DFA (goto
	// function totalized).
	queue := make([]int32, 0, len(m.nodes))
	for c := 0; c < 256; c++ {
		if s := m.nodes[0].next[c]; s != 0 {
			m.nodes[s].fail = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for c := 0; c < 256; c++ {
			v := m.nodes[u].next[c]
			if v == 0 {
				// Totalize: missing edge borrows the failure state's edge.
				m.nodes[u].next[c] = m.nodes[m.nodes[u].fail].next[c]
				continue
			}
			f := m.nodes[m.nodes[u].fail].next[c]
			m.nodes[v].fail = f
			m.nodes[v].match = m.nodes[v].match || m.nodes[f].match
			queue = append(queue, v)
		}
	}
	return m
}

// Contains reports whether any pattern occurs in data. It is the fast path
// used by the IDS (it stops at the first hit).
func (m *Matcher) Contains(data []byte) bool {
	s := int32(0)
	for i := 0; i < len(data); i++ {
		s = m.nodes[s].next[data[i]]
		if m.nodes[s].match {
			return true
		}
	}
	return false
}
