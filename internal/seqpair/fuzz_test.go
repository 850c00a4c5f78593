package seqpair

import (
	"fmt"
	"math/rand"
	"testing"
)

// incFuzzOps bounds the operations one fuzz input decodes to.
const incFuzzOps = 400

// byteReader hands out the fuzz input a byte at a time, then zeros.
type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) done() bool { return r.off >= len(r.data) }

func (r *byteReader) next() int {
	if r.done() {
		return 0
	}
	b := r.data[r.off]
	r.off++
	return int(b)
}

// intn decodes a value in [0, n) from up to two bytes.
func (r *byteReader) intn(n int) int {
	return (r.next()<<8 | r.next()) % n
}

// FuzzIncPack decodes a byte stream into a sequence-pair walk — alpha,
// beta and both-sequence swaps, rotations, save → pack → undo cycles,
// batches of moves with no pack between them, bursts that leave more
// pending points than the dirty set's cap, spurious window
// disturbances (out of range too) and Invalidate — disturbing the
// IncPack with the alpha positions each step touches, as the placer
// does. After every pack the incremental coordinates must equal
// PackInto's bit for bit, and PackNaive's when n ≤ 64.
func FuzzIncPack(f *testing.F) {
	f.Add([]byte{10, 1, 0, 0, 3, 0, 7, 9, 1, 0, 2, 0, 5, 9})
	f.Add([]byte{200, 7, 4, 0, 0, 0, 150, 9, 2, 0, 9, 0, 80, 9, 5, 9, 4, 3, 0, 20, 9, 5, 9})
	f.Add([]byte{130, 3, 6, 6, 6, 6, 9, 8, 9, 7, 0, 1, 0, 120, 9})
	// n = 32 and n = 160, multiples of the minimum checkpoint stride
	// (16): windows that straddle or end on a grid step, swaps,
	// rotations, a burst, and save → pack → undo.
	f.Add([]byte{31, 5, 3, 0, 16, 9, 7, 0, 18, 0, 17, 9, 4, 0, 0, 0, 0, 0, 31, 9, 5, 9, 3, 0, 31, 9})
	f.Add([]byte{159, 11, 7, 0, 17, 0, 34, 9, 4, 2, 0, 48, 0, 144, 9, 6, 1, 0, 16, 0, 96, 2, 0, 64, 0, 128, 9, 5, 9, 7, 0, 162, 0, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &byteReader{data: data}
		n := 1 + r.next()%200
		rng := rand.New(rand.NewSource(int64(r.next())))
		sp := New(n)
		sp.Shuffle(rng)
		w, h := randDims(n, rng)
		ip := &IncPack{}
		ws := &PackWorkspace{}

		var saved State
		savedValid := false
		var undoPoints, undoRot []int // alpha positions and rotated modules since the save
		touch := func(p int) {
			ip.Disturb(p, p)
			if savedValid {
				undoPoints = append(undoPoints, p)
			}
		}
		swap := func(kind, a, b int) {
			switch kind {
			case 0:
				sp.SwapModulesAlpha(a, b)
			case 1:
				sp.SwapModulesBeta(a, b)
			default:
				sp.SwapModulesAlpha(a, b)
				sp.SwapModulesBeta(a, b)
			}
			touch(sp.PosAlpha(a))
			touch(sp.PosAlpha(b))
		}
		pack := func(tag string) {
			ix, iy := sp.PackIncrementalInto(ip, w, h)
			fx, fy := sp.PackInto(ws, w, h)
			for m := 0; m < n; m++ {
				if ix[m] != fx[m] || iy[m] != fy[m] {
					t.Fatalf("%s: module %d incremental (%d,%d) != PackInto (%d,%d)", tag, m, ix[m], iy[m], fx[m], fy[m])
				}
			}
			if n > 64 {
				return
			}
			nx, ny := sp.PackNaive(w, h)
			for m := 0; m < n; m++ {
				if ix[m] != nx[m] || iy[m] != ny[m] {
					t.Fatalf("%s: module %d incremental (%d,%d) != PackNaive (%d,%d)", tag, m, ix[m], iy[m], nx[m], ny[m])
				}
			}
		}

		pack("initial")
		for op := 0; op < incFuzzOps && !r.done(); op++ {
			tag := fmt.Sprintf("op %d", op)
			switch r.next() % 10 {
			case 0, 1, 2: // one swap: alpha, beta or both sequences
				if n >= 2 {
					swap(r.next()%3, r.intn(n), r.intn(n))
				}
			case 3: // rotation: a dimension change only
				m := r.intn(n)
				w[m], h[m] = h[m], w[m]
				touch(sp.PosAlpha(m))
				if savedValid {
					undoRot = append(undoRot, m)
				}
			case 4: // save: the moves until the next undo are one trial
				sp.SaveState(&saved)
				savedValid = true
				undoPoints, undoRot = undoPoints[:0], undoRot[:0]
			case 5: // undo: restore the save and disturb what changed since
				if !savedValid {
					break
				}
				sp.LoadState(&saved)
				for i := len(undoRot) - 1; i >= 0; i-- {
					m := undoRot[i]
					w[m], h[m] = h[m], w[m]
					ip.Disturb(sp.PosAlpha(m), sp.PosAlpha(m))
				}
				for _, p := range undoPoints {
					ip.Disturb(p, p)
				}
				savedValid = false
			case 6: // burst of swaps: more pending points than the cap
				if n >= 2 {
					for k := 0; k < incMaxSpans/2+1+r.next()%4; k++ {
						swap(r.next()%3, r.intn(n), r.intn(n))
					}
				}
			case 7: // spurious window, possibly out of range
				ip.Disturb(r.intn(n+4)-2, r.intn(n+4)-2)
			case 8:
				ip.Invalidate()
			case 9:
				pack(tag)
			}
		}
		pack("final")
	})
}
