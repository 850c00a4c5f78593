package bstar

import "slices"

// Seg is one contour segment: the skyline has height H over [X1, X2).
type Seg struct {
	X1, X2, H int
}

// Contour is the horizontal skyline of a packing in progress (Chang et
// al. [5]): segments spanning [0, +inf), spliced in place, so a reused
// contour allocates nothing once its buffer has grown. It takes
// rectangles (B*-tree modules) and profiles (an HB*-tree's contour
// nodes, Lin/Lin [17]). The zero value must be Reset before use.
type Contour struct {
	segs []Seg
}

// Reset empties the contour to height 0 over [0, +inf).
func (c *Contour) Reset() {
	c.segs = append(c.segs[:0], Seg{0, int(^uint(0) >> 1), 0})
}

// Place rests a rectangle over [x1, x2) on the contour, raises the
// interval to the rectangle's top, and returns the rectangle's base
// height.
func (c *Contour) Place(x1, x2, h int) int {
	top := [1]Seg{{0, x2 - x1, h}}
	return c.PlaceProfile(x1, top[:])
}

// PlaceProfile rests a packed sub-placement whose top profile is prof
// (segments of positive height over [0, width) relative to its own
// origin, as Profile returns them) with its origin at x, splices the
// profile raised by the base height into the contour, and returns that
// base height.
func (c *Contour) PlaceProfile(x int, prof []Seg) int {
	x2 := x + prof[len(prof)-1].X2
	s := c.segs
	// The window s[i:j+1] overlaps [x, x2); the contour spans
	// [0, +inf), so both ends are found.
	i, base := 0, 0
	for s[i].X2 <= x {
		i++
	}
	j := i
	for ; j < len(s) && s[j].X1 < x2; j++ {
		base = max(base, s[j].H)
	}
	j--
	// The window becomes the left remainder, the raised profile and the
	// right remainder. A first profile segment as high as the untouched
	// segment before it extends that segment instead.
	left, right := s[i], s[j]
	hasLeft, hasRight := left.X1 < x, right.X2 > x2
	if !hasLeft && i > 0 && s[i-1].H == base+prof[0].H {
		s[i-1].X2 = x + prof[0].X2
		prof = prof[1:]
	}
	k := len(prof)
	if hasLeft {
		k++
	}
	if hasRight {
		k++
	}
	// Resize the window to k segments, shifting the tail with copy.
	if d, n := k-(j+1-i), len(s); d > 0 {
		s = slices.Grow(s, d)[:n+d]
		copy(s[j+1+d:], s[j+1:n])
	} else if d < 0 {
		copy(s[j+1+d:], s[j+1:])
		s = s[:n+d]
	}
	c.segs = s
	w := s[i : i+k]
	if hasLeft {
		w[0] = Seg{left.X1, x, left.H}
		w = w[1:]
	}
	for m, p := range prof {
		w[m] = Seg{x + p.X1, x + p.X2, base + p.H}
	}
	if hasRight {
		w[len(prof)] = Seg{x2, right.X2, right.H}
	}
	return base
}

// Profile appends the contour over [0, width) to dst, coalescing
// neighbours of equal height, and returns the extended slice.
func (c *Contour) Profile(dst []Seg, width int) []Seg {
	start := len(dst)
	for _, s := range c.segs {
		if s.X1 >= width {
			break
		}
		s.X2 = min(s.X2, width)
		if n := len(dst); n > start && dst[n-1].H == s.H {
			dst[n-1].X2 = s.X2
			continue
		}
		dst = append(dst, s)
	}
	return dst
}
