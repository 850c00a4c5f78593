package bstar

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestContourMatchesColumns drives a contour with random rectangle
// places and profile splices and checks every step against a naive
// per-column height array: the returned base height, the whole
// skyline, the segment list's well-formedness, and the profile read
// back over a random width.
func TestContourMatchesColumns(t *testing.T) {
	const span = 64
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var c Contour
		c.Reset()
		cols := make([]int, span+16)
		for step := 0; step < 40; step++ {
			tag := fmt.Sprintf("seed %d step %d", seed, step)
			x := rng.Intn(span)
			var base int
			if rng.Intn(2) == 0 {
				w, h := 1+rng.Intn(12), 1+rng.Intn(9)
				want := maxCols(cols[x : x+w])
				base = c.Place(x, x+w, h)
				if base != want {
					t.Fatalf("%s: Place base %d, columns say %d", tag, base, want)
				}
				for k := x; k < x+w; k++ {
					cols[k] = base + h
				}
			} else {
				prof := randomProfile(rng, 1+rng.Intn(12))
				width := prof[len(prof)-1].X2
				want := maxCols(cols[x : x+width])
				base = c.PlaceProfile(x, prof)
				if base != want {
					t.Fatalf("%s: PlaceProfile base %d, columns say %d", tag, base, want)
				}
				for _, s := range prof {
					for k := x + s.X1; k < x+s.X2; k++ {
						cols[k] = base + s.H
					}
				}
			}
			checkContour(t, tag, &c, cols)
			width := rng.Intn(len(cols) + 1)
			prof := c.Profile(nil, width)
			at := 0
			for i, s := range prof {
				if s.X1 != at || s.X2 <= s.X1 || (i > 0 && prof[i-1].H == s.H) {
					t.Fatalf("%s: profile over [0,%d) malformed at %d: %v", tag, width, i, prof)
				}
				for k := s.X1; k < s.X2; k++ {
					if cols[k] != s.H {
						t.Fatalf("%s: profile height %d at x=%d, columns say %d", tag, s.H, k, cols[k])
					}
				}
				at = s.X2
			}
			if at != width {
				t.Fatalf("%s: profile covers [0,%d), want [0,%d)", tag, at, width)
			}
		}
	}
}

// randomProfile returns contiguous segments over [0, width) with
// positive heights, as a packed sub-placement's profile has.
func randomProfile(rng *rand.Rand, width int) []Seg {
	var prof []Seg
	for x := 0; x < width; {
		x2 := min(width, x+1+rng.Intn(4))
		prof = append(prof, Seg{x, x2, 1 + rng.Intn(9)})
		x = x2
	}
	return prof
}

func maxCols(cols []int) int {
	top := 0
	for _, h := range cols {
		top = max(top, h)
	}
	return top
}

// checkContour asserts that c spans [0, +inf) with contiguous,
// non-empty segments and agrees with the column heights.
func checkContour(t *testing.T, tag string, c *Contour, cols []int) {
	t.Helper()
	at := 0
	for i, s := range c.segs {
		if s.X1 != at || s.X2 <= s.X1 {
			t.Fatalf("%s: segment %d %v breaks the contour %v", tag, i, s, c.segs)
		}
		for k := s.X1; k < min(s.X2, len(cols)); k++ {
			if cols[k] != s.H {
				t.Fatalf("%s: contour height %d at x=%d, columns say %d", tag, s.H, k, cols[k])
			}
		}
		at = s.X2
	}
	if at != int(^uint(0)>>1) {
		t.Fatalf("%s: contour ends at %d", tag, at)
	}
}
