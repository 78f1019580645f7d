package core

import (
	"bytes"
	"testing"

	"repro/internal/telemetry"
)

// TestRegisterMetricsCoversLaterCodecs: the stage timers are created per
// codec on first use, so a registry must show a codec seen before
// RegisterMetrics ran and one first seen afterwards alike — wiring code calls
// RegisterMetrics at start-up, before any update has named its codec.
func TestRegisterMetricsCoversLaterCodecs(t *testing.T) {
	stageFor("test-seen-before").encode.Observe(1)
	reg := telemetry.NewRegistry()
	RegisterMetrics(reg)
	stageFor("test-seen-after").decode.Observe(1)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParseText(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct{ name, key, value string }{
		{"fedsz_encode_seconds_count", "codec", "test-seen-before"},
		{"fedsz_decode_seconds_count", "codec", "test-seen-after"},
		{"fedsz_delta_sections", "mode", "delta"},
		{"fedsz_delta_sections", "mode", "constant"},
		{"fedsz_delta_sections", "mode", "absolute"},
	} {
		if _, ok := telemetry.FindSample(samples, want.name, telemetry.L(want.key, want.value)); !ok {
			t.Errorf("scrape has no %s{%s=%q}:\n%s", want.name, want.key, want.value, buf.String())
		}
	}
	if s, ok := telemetry.FindSample(samples, "fedsz_decode_seconds_count", telemetry.L("codec", "test-seen-after")); ok && s.Value != 1 {
		t.Errorf("late codec's decode count = %v, want 1", s.Value)
	}
}
