package space

// TorusGrid returns the w x h regular grid of data points used by the
// paper's evaluation (Sec. IV-A): points (x*step, y*step) for x in [0,w)
// and y in [0,h), living on a torus of widths (w*step, h*step). The
// distance between two grid-adjacent points is step.
//
// Points are emitted row-major (y outer, x inner), so a contiguous prefix
// or suffix of the slice corresponds to a contiguous vertical band of the
// torus — exactly the "consecutive portion of the topology" that the
// catastrophic-failure scenario removes.
func TorusGrid(w, h int, step float64) []Point {
	if w <= 0 || h <= 0 || step <= 0 {
		panic("space: TorusGrid requires positive dimensions and step")
	}
	pts := make([]Point, 0, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pts = append(pts, Point{float64(x) * step, float64(y) * step})
		}
	}
	return pts
}

// TorusForGrid returns the torus that TorusGrid(w, h, step) tiles.
func TorusForGrid(w, h int, step float64) Torus {
	return NewTorus(float64(w)*step, float64(h)*step)
}

// RingPoints returns n evenly spaced points on a ring of the given
// circumference, for ring-overlay examples.
func RingPoints(n int, circumference float64) []Point {
	if n <= 0 || circumference <= 0 {
		panic("space: RingPoints requires positive arguments")
	}
	pts := make([]Point, n)
	step := circumference / float64(n)
	for i := range pts {
		pts[i] = Point{float64(i) * step}
	}
	return pts
}

// RightHalf reports whether a 2D point lies in the right half of a torus of
// width w (x in [w/2, w)). The paper's catastrophic failure kills "all the
// 1600 nodes located in one half of the torus"; combined with the row-major
// grid this selects a contiguous region.
func RightHalf(p Point, w float64) bool {
	return p[0] >= w/2
}
