package ntrs

import (
	"fmt"

	"dsmtherm/internal/material"
)

// DefaultNode is the node an omitted name selects: 0.25 µm, in the
// spelling requests, jobs and the command-line tools echo and key by.
const DefaultNode = "0.25"

// node is one accepted node name: its constructor and level count.
type node struct {
	build  func() *Technology
	levels int
}

// nodes maps every node name a request, job or design file may give to
// its technology. The empty name selects 0.25 µm, so an omitted node
// means 0.25 everywhere.
var nodes = func() map[string]node {
	m := map[string]node{}
	for _, n := range []struct {
		names []string
		build func() *Technology
	}{
		{[]string{"", DefaultNode, "250"}, N250},
		{[]string{"0.10", "0.1", "100"}, N100},
	} {
		levels := n.build().NumLevels()
		for _, name := range n.names {
			m[name] = node{build: n.build, levels: levels}
		}
	}
	return m
}()

// Levels returns the named node's level count without building its
// technology; ok is false for a name Select rejects.
func Levels(name string) (levels int, ok bool) {
	n, ok := nodes[name]
	return n.levels, ok
}

// Select builds the named node's technology with the named gap-fill
// dielectric (material.DielectricByName, the Tables 2–4 axis) and metal
// (material.MetalByName, Table 4's AlCu against Cu) swapped in, in that
// order; an empty gap or metal keeps the node's own. The error for an
// unknown name names it and carries no sentinel: each caller wraps it
// in its own.
func Select(name, gap, metal string) (*Technology, error) {
	n, ok := nodes[name]
	if !ok {
		return nil, fmt.Errorf("unknown node %q (want 0.25 or 0.10)", name)
	}
	tech := n.build()
	if gap != "" {
		d, err := material.DielectricByName(gap)
		if err != nil {
			return nil, err
		}
		tech = tech.WithGapFill(d)
	}
	if metal != "" {
		m, err := material.MetalByName(metal)
		if err != nil {
			return nil, err
		}
		tech = tech.WithMetal(m)
	}
	return tech, nil
}
