package store

import (
	"fmt"
	"testing"

	"repro/internal/wire"
)

// BenchmarkResultCacheGet measures one cache hit on an n=1000 result:
// a deep copy on the memory backend, a file read plus JSON decode on
// the file backend.
func BenchmarkResultCacheGet(b *testing.B) {
	res := &wire.Result{Version: wire.Version, Method: wire.MethodSeqPair, Cost: 1234.5,
		Breakdown: &wire.Breakdown{Area: 1000, HPWL: 234.5}, BBoxW: 900, BBoxH: 800, Legal: true,
		Placement: make([]wire.Placed, 1000)}
	for i := range res.Placement {
		res.Placement[i] = wire.Placed{Name: fmt.Sprintf("m%d", i), X: i * 7 % 900, Y: i * 13 % 800, W: 10 + i%9, H: 10 + i%7}
	}
	mkFile := func() Store {
		f, err := NewFile(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	for _, bk := range []struct {
		name string
		mk   func() Store
	}{{"memory", func() Store { return NewMemory(8) }}, {"file", mkFile}} {
		b.Run(bk.name, func(b *testing.B) {
			rc := NewResultCache(bk.mk(), 0)
			if err := rc.Put("hash", res); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, ok, err := rc.Get("hash"); !ok || err != nil {
					b.Fatalf("Get: ok=%v err=%v", ok, err)
				}
			}
		})
	}
}
