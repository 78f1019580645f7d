package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestParseArgsResolvesMode pins how the command line picks between the
// experiment driver and the socket sim: -serve or -clients N > 0 selects the
// sim, and a flag only the sim reads is a usage error without one — never a
// silently ignored setting on a run of every experiment.
func TestParseArgsResolvesMode(t *testing.T) {
	for _, tc := range []struct {
		args    string
		clients int    // 0 = experiments
		errHas  string // non-empty = usage error naming this
	}{
		{args: "", clients: 0},
		{args: "-run eqn1 -seed 7 -full", clients: 0},
		{args: "-list", clients: 0},
		{args: "-clients 0", clients: 0},
		{args: "-serve", clients: 32},
		{args: "-serve -clients 0", clients: 32},
		{args: "-serve -clients 3 -upload 127.0.0.1:9464 -scale 0.01", clients: 3},
		{args: "-clients 8 -parallel 4", clients: 8},
		{args: "-clients 8 -mbps 10 -model alexnet -trace -", clients: 8},
		{args: "-parallel 4", errHas: "-parallel"},
		{args: "-scale 0.02", errHas: "-scale"},
		{args: "-model alexnet", errHas: "-model"},
		{args: "-mbps 10", errHas: "-mbps"},
		{args: "-upload 127.0.0.1:9464", errHas: "-upload"},
		{args: "-trace t.jsonl", errHas: "-trace"},
		{args: "-clients 0 -run eqn1 -scale 0.02", errHas: "-serve"},
		{args: "-rounds 2", errHas: "-rounds"},
		{args: "-json -", errHas: "-json"},
		{args: "-baseline x.json", errHas: "-baseline"},
	} {
		var usage strings.Builder
		c, err := parseArgs(strings.Fields(tc.args), &usage)
		if tc.errHas != "" {
			if err == nil || !strings.Contains(usage.String(), tc.errHas) {
				t.Errorf("%q: err %v, usage output %q; want a usage error naming %s", tc.args, err, usage.String(), tc.errHas)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
		} else if c.clients != tc.clients {
			t.Errorf("%q: resolved %d sim clients, want %d", tc.args, c.clients, tc.clients)
		}
	}
}

// TestStreamSimSmoke drives the -serve streaming ingest at quickstart size:
// in-memory baselines plus a real loopback server round. A tracer rides
// along and must produce one intact JSONL span per phase plus the server's
// per-connection/per-update events.
func TestStreamSimSmoke(t *testing.T) {
	var sb strings.Builder
	var traceBuf bytes.Buffer
	tracer := telemetry.NewTracer(&traceBuf)
	if err := runStreamSim(&sb, 6, 2, 0, "alexnet", 0.01, 1, "", tracer); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"streaming ingest", "serial", "batched(2)", "streamed", "overlap ratio"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if err := tracer.Err(); err != nil {
		t.Fatal(err)
	}
	events := map[string]int{}
	sc := bufio.NewScanner(&traceBuf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		ev, _ := m["event"].(string)
		events[ev]++
	}
	for _, want := range []string{"build_updates", "baseline_decode", "stream_upload", "conn", "update", "stream_encode_upload"} {
		if events[want] == 0 {
			t.Fatalf("trace missing %q events (have %v)", want, events)
		}
	}
	if events["update"] < 12 { // 6 streamed + 6 stream-encoded
		t.Fatalf("trace has %d update events, want >= 12", events["update"])
	}
}

func TestStreamSimRejectsUnknownModel(t *testing.T) {
	var sb strings.Builder
	if err := runStreamSim(&sb, 2, 1, 0, "nope", 0.01, 1, "", nil); err == nil {
		t.Fatal("expected error for unknown model")
	}
}
