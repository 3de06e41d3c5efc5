// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary, built entirely on the
// standard library so the sdnfv-lint suite runs in hermetic environments
// (no module downloads). It keeps the same mental model — an Analyzer is
// a named check, a Pass is one analyzer applied to one type-checked
// package, diagnostics carry positions — plus one extension: an optional
// Collect phase that runs over every loaded package before any Run, so
// analyzers can gather module-wide facts (e.g. which functions carry the
// //sdnfv:hotpath annotation) that cross package boundaries.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sync"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is the one-paragraph description shown by sdnfv-lint -list.
	Doc string
	// Collect, when non-nil, runs over every loaded package before any
	// Run call, in dependency-agnostic order. It must only record facts
	// (via Pass.Facts) and must not report diagnostics.
	Collect func(*Pass)
	// Run applies the check to one package and reports diagnostics via
	// Pass.Report/Reportf.
	Run func(*Pass) error
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
	// Position is Pos resolved against the pass's FileSet; the driver
	// fills it in so consumers can print without carrying the FileSet.
	Position token.Position
}

// Facts is a concurrency-safe key/value store shared by every Pass of one
// lint run. Collect phases write, Run phases read. Keys are plain strings
// (conventionally "analyzer/kind/qualified-name") so facts survive the
// boundary between source-checked and export-data-imported views of the
// same package.
type Facts struct {
	mu sync.Mutex
	m  map[string]any
}

// NewFacts returns an empty fact store.
func NewFacts() *Facts {
	return &Facts{m: make(map[string]any)}
}

// Set records a fact.
func (f *Facts) Set(key string, val any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m[key] = val
}

// Get retrieves a fact.
func (f *Facts) Get(key string) (any, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.m[key]
	return v, ok
}

// Has reports whether a fact exists.
func (f *Facts) Has(key string) bool {
	_, ok := f.Get(key)
	return ok
}

// Pass is one analyzer applied to one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Facts     *Facts
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}
