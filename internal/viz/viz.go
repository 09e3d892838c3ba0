// Package viz renders topology snapshots as SVG images or ASCII density
// maps, reproducing the visual figures of the paper (Figs. 1, 8 and 9):
// nodes drawn at their virtual positions with edges to their 4 closest
// overlay neighbours.
//
// The renderers are read-only consumers of scenario.NodeSnapshot: the
// Neighbors lists of one snapshot share a single backing array (captured
// through the overlay's AppendNeighbors form), so they are iterated but
// never retained or appended to here.
//
// Torus wrap-around edges (between a node near one border and a neighbour
// near the opposite border) are drawn as short stubs rather than lines
// across the whole image, matching how the paper's figures read.
package viz

import (
	"fmt"
	"io"
	"strings"

	"polystyrene/internal/scenario"
	"polystyrene/internal/sim"
	"polystyrene/internal/space"
)

// SVGOptions controls rendering.
type SVGOptions struct {
	// Scale is the number of pixels per space unit (default 12).
	Scale float64
	// NodeRadius is the node dot radius in pixels (default 2.5).
	NodeRadius float64
	// Margin is the padding around the torus in pixels (default 10).
	Margin float64
}

func (o SVGOptions) withDefaults() SVGOptions {
	if o.Scale <= 0 {
		o.Scale = 12
	}
	if o.NodeRadius <= 0 {
		o.NodeRadius = 2.5
	}
	if o.Margin <= 0 {
		o.Margin = 10
	}
	return o
}

// WriteSVG renders a snapshot of nodes on a torus of the given widths.
func WriteSVG(w io.Writer, tor space.Torus, snap []scenario.NodeSnapshot, opts SVGOptions) error {
	opts = opts.withDefaults()
	// float64(x*y) rounds the product alone, so no GOARCH fuses it into the sum (scripts/nofma.sh).
	width := float64(tor.Width(0)*opts.Scale) + 2*opts.Margin
	height := float64(tor.Width(1)*opts.Scale) + 2*opts.Margin

	pos := make(map[sim.NodeID]space.Point, len(snap))
	for _, ns := range snap {
		pos[ns.ID] = ns.Pos
	}
	px := func(p space.Point) (float64, float64) {
		q := tor.Wrap(p)
		return opts.Margin + float64(q[0]*opts.Scale), opts.Margin + float64(q[1]*opts.Scale)
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&b, `<rect width="100%%" height="100%%" fill="white"/>`+"\n")

	// Edges first, so nodes draw on top. Each undirected edge once; on a
	// converged shape nearly every directed edge has its reverse in the
	// snapshot, so size for about half the total neighbour entries.
	type edge struct{ a, b sim.NodeID }
	edges := 0
	for _, ns := range snap {
		edges += len(ns.Neighbors)
	}
	drawn := make(map[edge]bool, edges/2+1)
	halfX, halfY := tor.Width(0)/2, tor.Width(1)/2
	for _, ns := range snap {
		x1, y1 := px(ns.Pos)
		for _, nb := range ns.Neighbors {
			nbPos, ok := pos[nb]
			if !ok {
				continue
			}
			key := edge{ns.ID, nb}
			if nb < ns.ID {
				key = edge{nb, ns.ID}
			}
			if drawn[key] {
				continue
			}
			drawn[key] = true
			// Wrap-around edges become stubs pointing the short way.
			a, c := tor.Wrap(ns.Pos), tor.Wrap(nbPos)
			dx, dy := c[0]-a[0], c[1]-a[1]
			wraps := dx > halfX || dx < -halfX || dy > halfY || dy < -halfY
			if wraps {
				sx, sy := shortWay(dx, tor.Width(0)), shortWay(dy, tor.Width(1))
				fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#bbb" stroke-width="0.7"/>`+"\n",
					x1, y1, x1+float64(sx*opts.Scale/2), y1+float64(sy*opts.Scale/2))
				continue
			}
			x2, y2 := px(nbPos)
			fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#888" stroke-width="0.7"/>`+"\n",
				x1, y1, x2, y2)
		}
	}
	for _, ns := range snap {
		x, y := px(ns.Pos)
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="%.1f" fill="#c33"/>`+"\n", x, y, opts.NodeRadius)
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// shortWay returns the signed short-way delta for a raw coordinate delta d
// on a circle of circumference width.
func shortWay(d, width float64) float64 {
	switch {
	case d > width/2:
		return d - width
	case d < -width/2:
		return d + width
	default:
		return d
	}
}

// ASCIIDensity renders the node distribution as a character density map of
// cols x rows cells: ' ' for empty, digits for 1-9 nodes, '#' for 10+.
// It gives a quick terminal view of whether the shape is populated
// uniformly (the essence of Figs. 1, 8 and 9).
func ASCIIDensity(tor space.Torus, snap []scenario.NodeSnapshot, cols, rows int) string {
	if cols <= 0 || rows <= 0 {
		return ""
	}
	grid := make([]int, cols*rows)
	for _, ns := range snap {
		p := tor.Wrap(ns.Pos)
		cx := int(p[0] / tor.Width(0) * float64(cols))
		cy := int(p[1] / tor.Width(1) * float64(rows))
		if cx >= cols {
			cx = cols - 1
		}
		if cy >= rows {
			cy = rows - 1
		}
		grid[cy*cols+cx]++
	}
	var b strings.Builder
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			n := grid[y*cols+x]
			switch {
			case n == 0:
				b.WriteByte(' ')
			case n < 10:
				b.WriteByte(byte('0' + n))
			default:
				b.WriteByte('#')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// OccupancyStats summarises an ASCII-style density grid: the fraction of
// cells containing at least one node. A recovered shape has high coverage;
// a collapsed one (Fig. 1c) leaves half the cells empty.
func OccupancyStats(tor space.Torus, snap []scenario.NodeSnapshot, cols, rows int) float64 {
	if cols <= 0 || rows <= 0 {
		return 0
	}
	grid := make([]bool, cols*rows)
	for _, ns := range snap {
		p := tor.Wrap(ns.Pos)
		cx := int(p[0] / tor.Width(0) * float64(cols))
		cy := int(p[1] / tor.Width(1) * float64(rows))
		if cx >= cols {
			cx = cols - 1
		}
		if cy >= rows {
			cy = rows - 1
		}
		grid[cy*cols+cx] = true
	}
	filled := 0
	for _, f := range grid {
		if f {
			filled++
		}
	}
	return float64(filled) / float64(cols*rows)
}
