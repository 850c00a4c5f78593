package render

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/wire"
	"repro/placer"
)

func chartTrace() *wire.Trace {
	return &wire.Trace{
		Version: wire.Version, Trace: placer.Trace{Method: "seqpair", Capacity: 2048, Events: []wire.TraceEvent{
			{Kind: wire.TraceKindStage, Worker: 0, Stage: 1, Temp: 10, Best: 90, Cur: 95, Moves: 40, Accepted: 30},
			{Kind: wire.TraceKindStage, Worker: 1, Stage: 1, Temp: 35, Best: 98, Cur: 99, Moves: 40, Accepted: 38},
			{Kind: wire.TraceKindExchange, Worker: 0, Stage: 2, Temp: 10, Cur: 95, Peer: 1, PeerTemp: 35, PeerCost: 99, Accept: true},
			{Kind: wire.TraceKindStage, Worker: 0, Stage: 2, Temp: 9, Best: 80, Cur: 85, Moves: 80, Accepted: 50},
			{Kind: wire.TraceKindStage, Worker: 1, Stage: 2, Temp: 31.5, Best: 95, Cur: 97, Moves: 80, Accepted: 74},
		}},
	}
}

func TestChartSVGContents(t *testing.T) {
	var buf bytes.Buffer
	if err := ChartSVG(&buf, chartTrace()); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Fatal("output is not an SVG document")
	}
	// Two rungs, three series each (best, current, acceptance).
	if n := strings.Count(svg, "<polyline"); n != 6 {
		t.Fatalf("%d polylines, want 6 (best/cur/accept × 2 rungs)", n)
	}
	// One exchange attempt, accepted → filled circle (not fill="none").
	if n := strings.Count(svg, "<circle"); n != 1 {
		t.Fatalf("%d exchange markers, want 1", n)
	}
	if strings.Contains(svg, `<circle cx="`) && strings.Contains(svg, `r="3" fill="none"`) {
		t.Fatal("accepted exchange rendered as unfilled marker")
	}
	for _, want := range []string{"rung 0", "rung 1", "seqpair", "acceptance rate"} {
		if !strings.Contains(svg, want) {
			t.Errorf("chart missing %q", want)
		}
	}
}

func TestChartSVGDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := ChartSVG(&a, chartTrace()); err != nil {
		t.Fatal(err)
	}
	if err := ChartSVG(&b, chartTrace()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("chart of the same trace differs between renders")
	}
}

func TestChartSVGRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := ChartSVG(&buf, &wire.Trace{Version: wire.Version, Trace: placer.Trace{Method: "seqpair"}}); err == nil {
		t.Fatal("empty trace rendered without error")
	}
	if err := ChartSVG(&buf, nil); err == nil {
		t.Fatal("nil trace rendered without error")
	}
}
