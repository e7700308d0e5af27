package server

import (
	"strconv"

	"streamgpu/internal/server/wire"
	"streamgpu/internal/telemetry"
)

// tenantLabels identifies one tenant's series of a per-service metric.
// Tenant IDs come from the client, so their cardinality is bounded by the
// deployment's tenant population, not by request volume. Building the map
// allocates, so callers build it only when Config.Metrics is set.
func tenantLabels(svc wire.Svc, tenant uint32) telemetry.Labels {
	return telemetry.Labels{"svc": svc.String(), "tenant": strconv.FormatUint(uint64(tenant), 10)}
}

// verdictLabels extends tenantLabels with the admission verdict and — for
// rejections — the one-byte wire reason ("none" on acceptance), so a
// dashboard can tell a throttled tenant from a deadline miss from shared
// overload without scraping logs.
func verdictLabels(svc wire.Svc, tenant uint32, verdict string, reason wire.Reason) telemetry.Labels {
	l := tenantLabels(svc, tenant)
	l["verdict"] = verdict
	l["reason"] = reason.String()
	return l
}

// countVerdict is the single call site of the per-tenant admission verdict
// counter (one call site per series keeps the label set coherent).
func (s *Server) countVerdict(svc wire.Svc, tenant uint32, verdict string, reason wire.Reason) {
	if m := s.cfg.Metrics; m != nil {
		m.Counter("server_requests_total", verdictLabels(svc, tenant, verdict, reason)).Inc()
	}
}

// quarantineTransition is the health scoreboard's metrics hook.
func (s *Server) quarantineTransition(dev int, quarantined bool) {
	state := "readmitted"
	if quarantined {
		state = "quarantined"
	}
	s.cfg.Metrics.Counter("server_device_transitions_total",
		telemetry.Labels{"dev": strconv.Itoa(dev), "state": state}).Inc()
}

// sessionGauge tracks live sessions.
func (s *Server) sessionGauge(d float64) {
	s.cfg.Metrics.Gauge("server_sessions", telemetry.Labels{}).Add(d)
}

// drainingNow reports whether Shutdown has begun.
func (s *Server) drainingNow() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// dropSession removes a finished session from the live set.
func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
}
