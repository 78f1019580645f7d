package main

import (
	"strings"
	"testing"

	"repro/internal/agg"
	"repro/internal/flserve"
)

// TestParseArgsResolvesMode pins how the command line picks between the
// experiment driver and the upload client: -upload ADDR selects the client,
// and a flag only the client reads is a usage error without it — never a
// silently ignored setting on a run of every experiment. The loopback socket
// sim that -serve / -clients N used to start is gone; its flags say where the
// measurement lives now.
func TestParseArgsResolvesMode(t *testing.T) {
	for _, tc := range []struct {
		args    string
		upload  bool   // false = experiments
		clients int    // with upload
		errHas  string // non-empty = usage error naming this
	}{
		{args: ""},
		{args: "-run fig8 -seed 7 -full"},
		{args: "-list"},
		{args: "-upload 127.0.0.1:9464", upload: true, clients: 32},
		{args: "-clients 3 -upload 127.0.0.1:9464 -scale 0.01", upload: true, clients: 3},
		{args: "-upload 127.0.0.1:9464 -clients 8 -mbps 10 -model alexnet -seed 3", upload: true, clients: 8},
		{args: "-upload 127.0.0.1:9464 -clients 0", errHas: "-clients 0"},
		{args: "-clients 8", errHas: "bash bench/run.sh"},
		{args: "-clients 8 -mbps 10", errHas: "-upload ADDR"},
		{args: "-scale 0.02", errHas: "-scale"},
		{args: "-model alexnet", errHas: "-model"},
		{args: "-mbps 10", errHas: "-mbps"},
		{args: "-run fig8 -scale 0.02", errHas: "-upload ADDR"},
		{args: "-serve", errHas: "-serve"},
		{args: "-clients 8 -parallel 4", errHas: "-parallel"},
		{args: "-upload 127.0.0.1:9464 -trace t.jsonl", errHas: "-trace"},
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
		} else if (c.upload != "") != tc.upload || (tc.upload && c.clients != tc.clients) {
			t.Errorf("%q: resolved upload %q with %d clients, want upload %v with %d", tc.args, c.upload, c.clients, tc.upload, tc.clients)
		}
	}
}

// TestUploadClientSmoke drives the upload client against an in-process
// flserve server folding through agg.Sharded — the fedsz-serve side of the
// two-process e2e — at quickstart size: every update must be acknowledged,
// folded, and counted by the server.
func TestUploadClientSmoke(t *testing.T) {
	fold := agg.New(agg.Config{})
	srv, err := flserve.Listen("127.0.0.1:0", flserve.Config{Ingestor: fold})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var sb strings.Builder
	c := config{upload: srv.Addr().String(), clients: 6, model: "alexnet", scale: 0.01, seed: 1, mbps: 200}
	if err := runUpload(&sb, c); err != nil {
		t.Fatal(err)
	}
	// The byte counts are pinned: compressing per client in goroutines must
	// produce the bytes the earlier pooled batch did.
	for _, want := range []string{"upload: 6 clients × alexnet", "raw 14400024 B -> wire 1673163 B (ratio 8.61x)", "6 update(s) acknowledged"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, sb.String())
		}
	}
	_, folded := fold.Mean()
	if st := srv.Snapshot(); st.Updates != 6 || st.Rejected != 0 || folded != 6 {
		t.Fatalf("server counted %+v and folded %d, want 6 updates", st, folded)
	}
}

func TestUploadRejectsUnknownModel(t *testing.T) {
	var sb strings.Builder
	if err := runUpload(&sb, config{upload: "127.0.0.1:1", clients: 2, model: "nope", scale: 0.01, seed: 1}); err == nil {
		t.Fatal("expected error for unknown model")
	}
}
