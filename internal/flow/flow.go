// Package flow enhances the AST with control-flow and data-flow edges,
// mirroring the JStap-style graph the paper builds on top of Esprima. Per
// the paper's adjustments, control flow is restricted to nodes that have an
// impact on execution paths — statement nodes, CatchClause, and
// ConditionalExpression — and data-flow edges connect Identifier nodes only:
// there is an edge from a definition site to each use site of the same
// binding. Data-flow construction honors a configurable deadline (the paper
// uses two minutes); on timeout the graph falls back to control flow only.
//
// Construction is one fused traversal: scope.Session.AnalyzeFlow emits the
// control edges while it resolves scopes (what used to be two walks), and
// the data edges are then read straight off the binding list. A Session
// draws all edge and scope storage from per-session pools, so every caller
// holds one: a scan worker for its whole run, a one-shot caller for one
// Build.
package flow

import (
	"time"

	"repro/internal/js/ast"
	"repro/internal/js/scope"
	"repro/internal/obs"
)

// Edge is a directed edge between two AST nodes. It is an alias for
// scope.Edge: the fused walk emits control edges during scope analysis, so
// the type lives in the lower layer.
type Edge = scope.Edge

// Graph is the AST enhanced with control and data flows.
type Graph struct {
	Root *ast.Program
	// Control edges between control-flow-relevant nodes.
	Control []Edge
	// Data edges from definition Identifiers to use Identifiers.
	Data []Edge
	// Scopes is the scope analysis the data flow was derived from.
	Scopes *scope.Info
	// DataFlowTimedOut reports that the data-flow pass hit its deadline and
	// the graph contains control flow only.
	DataFlowTimedOut bool
}

// Options configures graph construction.
type Options struct {
	// DataFlowDeadline bounds data-flow construction; zero means the
	// paper's default of two minutes.
	DataFlowDeadline time.Duration
}

// DefaultDataFlowDeadline matches the two-minute timeout from the paper.
const DefaultDataFlowDeadline = 2 * time.Minute

// dataFlowCheckEvery is the number of data edges between deadline checks.
// It is a plain edges-since-last-check counter: the old sampling scheme
// (len(Data)%4096 == 0) never fired for files whose per-binding ref bursts
// stepped over the multiple, leaving the deadline unenforced.
const dataFlowCheckEvery = 4096

// Session is a reusable graph builder. It owns a scope.Session plus pooled
// edge storage, so a scan worker that flows many files pays steady-state
// zero allocations for graph construction.
//
// Ownership contract (mirroring parser.Session): the Graph returned by
// Build aliases session storage and is valid only until the next Build on
// the same Session. Sessions are not safe for concurrent use.
type Session struct {
	sc   *scope.Session
	data []Edge
	g    Graph
}

// NewSession returns an empty flow session.
func NewSession() *Session {
	return &Session{sc: scope.NewSession()}
}

// Build constructs the enhanced graph for a program, reusing the session's
// pooled storage. It trusts the parser's NodeID stamping (stamping only
// unstamped trees); a tree mutated after stamping must be re-stamped first
// (see DESIGN.md "Dense node plane"). The result is invalidated by the
// next Build on the same Session.
func (s *Session) Build(prog *ast.Program, opts Options) *Graph {
	defer obs.Time("flow.build")()
	deadline := opts.DataFlowDeadline
	if deadline <= 0 {
		deadline = DefaultDataFlowDeadline
	}
	start := time.Now()
	info, control := s.sc.AnalyzeFlow(prog)
	g := &s.g
	*g = Graph{Root: prog, Control: control, Scopes: info}
	// One deadline check covers the fused walk itself; inside the edge loop
	// the counter below takes over.
	if time.Since(start) > deadline {
		g.DataFlowTimedOut = true
		flushStats(g)
		return g
	}
	s.data = s.data[:0]
	sinceCheck := 0
	for _, b := range info.Bindings {
		if b.Decl == nil {
			continue
		}
		for _, ref := range b.Refs {
			s.data = append(s.data, Edge{From: b.Decl, To: ref})
		}
		sinceCheck += len(b.Refs)
		if sinceCheck >= dataFlowCheckEvery {
			sinceCheck = 0
			if time.Since(start) > deadline {
				s.data = s.data[:0]
				g.DataFlowTimedOut = true
				flushStats(g)
				return g
			}
		}
	}
	g.Data = s.data
	flushStats(g)
	return g
}

// flushStats records one built graph into the obs registry (no-ops when
// metrics are disabled).
func flushStats(g *Graph) {
	if !obs.Enabled() {
		return
	}
	obs.Add("flow.graphs", 1)
	obs.Add("flow.walk.fused", 1)
	obs.Add("flow.control_edges", int64(len(g.Control)))
	obs.Add("flow.data_edges", int64(len(g.Data)))
	obs.Add("flow.scope.bindings", int64(len(g.Scopes.Bindings)))
	if g.DataFlowTimedOut {
		obs.Add("flow.dataflow_timeouts", 1)
	}
}
