package services

// HostStatus is one testbed host's health snapshot, served by
// GET /v1/hosts: the host model's own up/down and the failure
// detector's verdict — its liveness state and its quarantine phase,
// reported in circuit-breaker terms with the windowed failure rate
// behind it.
type HostStatus struct {
	// Host is the host name; Site the owning site.
	Host string `json:"host"`
	Site string `json:"site"`
	// Up reports the host model's ground truth: not failed and
	// reachable.
	Up bool `json:"up"`
	// Detector is the failure detector's state for the host
	// (healthy/suspect/dead/recovered); empty if it does not watch it.
	Detector string `json:"detector,omitempty"`
	// Breaker is the detector's quarantine phase (closed/open/half-open);
	// "closed" for a host it does not watch, which it never quarantines.
	Breaker string `json:"breaker"`
	// FailureRate and Samples are the detector's windowed failure rate
	// and outcome count; zero for a host it does not watch.
	FailureRate float64 `json:"failure_rate"`
	Samples     int     `json:"samples"`
	// BreakerOpens counts how many times the host was quarantined.
	BreakerOpens int `json:"breaker_opens"`
}
