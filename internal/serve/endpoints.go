package serve

// Endpoint is the canonical label of one served route. The same value is
// used everywhere a route is named — the per-route request counters in the
// JSON metrics snapshot, the endpoint label on every Prometheus series,
// the access log, and request trace spans — so dashboards, logs and traces
// join on one vocabulary instead of three near-identical spellings.
type Endpoint string

// The endpoint table. Values are the historical route labels of the JSON
// metrics "routes" map, so existing dashboards keep working.
const (
	EndpointHealthz   Endpoint = "healthz"
	EndpointReadyz    Endpoint = "readyz"
	EndpointFigures   Endpoint = "figures"
	EndpointFigure    Endpoint = "figures/{name}"
	EndpointMRC       Endpoint = "mrc"
	EndpointMix       Endpoint = "mix"
	EndpointStats     Endpoint = "stats"
	EndpointMetrics   Endpoint = "metrics"      // GET /api/v1/metrics (JSON)
	EndpointProm      Endpoint = "metrics.prom" // GET /metrics (Prometheus text)
	EndpointUnmatched Endpoint = "other"        // fell through the mux
)

// Endpoints lists every routed endpoint label (excluding the "other"
// fall-through), in registration order — for docs and tests.
func Endpoints() []Endpoint {
	return []Endpoint{
		EndpointHealthz, EndpointReadyz, EndpointFigures, EndpointFigure,
		EndpointMRC, EndpointMix, EndpointStats, EndpointMetrics, EndpointProm,
	}
}
