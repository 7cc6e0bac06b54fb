// Package flow enhances the AST with control-flow and data-flow edges,
// mirroring the JStap-style graph the paper builds on top of Esprima. Per
// the paper's adjustments, control flow is restricted to nodes that have an
// impact on execution paths — statement nodes, CatchClause, and
// ConditionalExpression — and data-flow edges connect Identifier nodes only:
// there is an edge from a definition site to each use site of the same
// binding.
//
// The graph carries edge counts, not edge lists: the detector reads only
// how many control and data edges a file has. Construction is one fused
// traversal: scope.Session.AnalyzeFlow counts the control edges while it
// resolves scopes, and the data edges are the declared bindings' reference
// counts. Work is linear in the tree, so the paper's two-minute data-flow
// deadline (§III-A) is not reproduced (see DESIGN.md). A Session draws all
// scope storage from per-session pools, so every caller holds one: a scan
// worker for its whole run, a one-shot caller for one Build.
package flow

import (
	"repro/internal/js/ast"
	"repro/internal/js/scope"
	"repro/internal/obs"
)

// Graph is the AST enhanced with control and data flows.
type Graph struct {
	// Scopes is the scope analysis the data flow was derived from.
	Scopes *scope.Info
	// ControlEdges counts edges between control-flow-relevant nodes.
	ControlEdges int
	// DataEdges counts edges from definition Identifiers to use
	// Identifiers.
	DataEdges int
}

// Session is a reusable graph builder. It owns a scope.Session, so a scan
// worker that flows many files pays steady-state zero allocations for graph
// construction.
//
// Ownership contract (mirroring parser.Session): the Graph returned by
// Build aliases session storage and is valid only until the next Build on
// the same Session. Sessions are not safe for concurrent use.
type Session struct {
	sc *scope.Session
	g  Graph
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
func (s *Session) Build(prog *ast.Program) *Graph {
	defer obs.Time("flow.build")()
	info, control := s.sc.AnalyzeFlow(prog)
	data := 0
	for _, b := range info.Bindings {
		if b.Decl != nil {
			data += len(b.Refs)
		}
	}
	s.g = Graph{Scopes: info, ControlEdges: control, DataEdges: data}
	if obs.Enabled() {
		obs.Add("flow.graphs", 1)
		obs.Add("flow.walk.fused", 1)
		obs.Add("flow.control_edges", int64(control))
		obs.Add("flow.data_edges", int64(data))
		obs.Add("flow.scope.bindings", int64(len(info.Bindings)))
	}
	return &s.g
}
