package telemetry

// Well-known metric family names shared between the HTTP serving layer
// and its tests. The registry creates families on first use, so these
// constants are the single place the resilience middleware and the
// /metrics assertions agree on spelling.
const (
	// FamilyHTTPPanics counts handler panics converted to JSON 500s by
	// the recovery middleware, labeled by route. The server keeps
	// serving; a non-zero value is a bug report, not an outage.
	FamilyHTTPPanics = "http_panics_total"
	// FamilyHTTPShed counts requests rejected with 503 + Retry-After by
	// the max-inflight load shedder, labeled by route.
	FamilyHTTPShed = "http_shed_total"
	// FamilyHTTPTimeouts counts requests answered with 503 because the
	// handler exceeded the per-request deadline, labeled by route.
	FamilyHTTPTimeouts = "http_timeouts_total"
)
