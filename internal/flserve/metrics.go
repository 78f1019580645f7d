package flserve

// Server metrics: each Server owns one serverMetrics and updates it on the
// ingest path whether or not anything exports it. Snapshot reads it, and
// RegisterMetrics names the same values on a registry the program built, so
// Stats and a /metrics scrape cannot disagree and two servers in one process
// (an edge and its root) never add into the same series.

import (
	"errors"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// rejectReasons are fedsz_server_updates_rejected_total's reason labels and
// the errors they name; the last, nil, takes every other refusal.
var rejectReasons = [...]struct {
	label string
	err   error
}{{"nonfinite", core.ErrNonFinite}, {"structure", core.ErrStructure}, {"cap", core.ErrLimit}, {"other", nil}}

// rejectReason is the index in rejectReasons of an update's refusal err.
func rejectReason(err error) int {
	i := 0
	for rejectReasons[i].err != nil && !errors.Is(err, rejectReasons[i].err) {
		i++
	}
	return i
}

// rejected is the updates refused for any reason.
func (m *serverMetrics) rejected() uint64 {
	var n uint64
	for i := range m.updatesRejected {
		n += m.updatesRejected[i].Value()
	}
	return n
}

type serverMetrics struct {
	connsAccepted telemetry.Counter
	connsActive   telemetry.Gauge
	connsRejected telemetry.Counter
	idleKills     telemetry.Counter
	uploadKills   telemetry.Counter
	shed          telemetry.Counter
	queueDepth    telemetry.Gauge

	updates         telemetry.Counter
	updatesRejected [len(rejectReasons)]telemetry.Counter // by rejectReason
	wireBytes       telemetry.Counter
	wireHist        *telemetry.Histogram
	decodeHist      *telemetry.Histogram
	overlapHist     *telemetry.Histogram

	deltaAccepted telemetry.Counter
	deltaRefused  telemetry.Counter

	// The per-update timing sums (nanoseconds) and pool recycling total
	// behind Stats: read by Snapshot, exported as no series.
	readWaitNS    telemetry.Counter
	decodeWorkNS  telemetry.Counter
	wallNS        telemetry.Counter
	bytesRecycled telemetry.Counter
}

// RegisterMetrics exports this server's ingest metrics on reg. Call it once
// per server from wiring code; a registry holds one server's series, so
// registering a second server on the same registry panics.
func (s *Server) RegisterMetrics(reg *telemetry.Registry) {
	m := &s.m
	reg.Register("fedsz_server_connections_accepted_total",
		"Connections accepted by the ingest listener.", &m.connsAccepted)
	reg.Register("fedsz_server_connections_active",
		"Connections currently being served.", &m.connsActive)
	reg.Register("fedsz_server_connections_rejected_total",
		"Connections dropped for protocol failures (bad magic, truncated prelude).", &m.connsRejected)
	reg.Register("fedsz_server_max_conns",
		"Configured MaxConns bound; fedsz_server_connections_active/fedsz_server_max_conns is worker saturation.",
		func() float64 { return float64(s.cfg.MaxConns) })
	reg.Register("fedsz_server_timeout_kills_total",
		"Connections killed by a timeout, by kind.", &m.idleKills, telemetry.L("kind", "idle"))
	reg.Register("fedsz_server_timeout_kills_total",
		"Connections killed by a timeout, by kind.", &m.uploadKills, telemetry.L("kind", "upload"))
	reg.Register("fedsz_server_shed_total",
		"Connections refused by admission control (ingest queue full) — load declined, not failures.", &m.shed)
	reg.Register("fedsz_server_queue_depth",
		"Connections waiting in the bounded ingest queue for a serving slot.", &m.queueDepth)
	reg.Register("fedsz_server_updates_total",
		"Updates decoded, verified, and folded by the ingestor.", &m.updates)
	for i, reason := range rejectReasons {
		reg.Register("fedsz_server_updates_rejected_total",
			"Updates rejected by decode or verification, by reason: nonfinite (decodes to NaN or an infinity), structure (departs from the round's adopted structure), cap (declares more entries or elements than a decoder takes), other (any other refusal: a corrupt or truncated stream, a missing reference, a timeout).",
			&m.updatesRejected[i], telemetry.L("reason", reason.label))
	}
	reg.Register("fedsz_server_wire_bytes_total",
		"Raw socket bytes across accepted updates.", &m.wireBytes)
	reg.Register("fedsz_server_update_wire_bytes",
		"Per-update wire size (framing included).", m.wireHist)
	reg.Register("fedsz_server_decode_seconds",
		"Per-update ingest time, from the first read of the update's stream through its fold into the accumulator.", m.decodeHist)
	reg.Register("fedsz_server_overlap_ratio",
		"Per-update fraction of decode work hidden behind receive (0 = strictly sequential, 1 = fully overlapped).",
		m.overlapHist)
	reg.Register("fedsz_server_delta_negotiations_total",
		"FLS2 delta negotiations, by outcome.", &m.deltaAccepted, telemetry.L("outcome", "accepted"))
	reg.Register("fedsz_server_delta_negotiations_total",
		"FLS2 delta negotiations, by outcome.", &m.deltaRefused, telemetry.L("outcome", "refused"))
}
