package services

// HostStatus is one testbed host's snapshot, served by GET /v1/hosts.
// Its fields come from three owners: the testbed's host model (Up), the
// failure detector (Detector, Breaker, FailureRate, Samples,
// BreakerOpens) and the site's resource-performance database, which
// holds the row the scheduler reads (Status, Group, CPULoad,
// AvailMemBytes, Arch, OS, Speed).
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
	// Status is the database's verdict (up/down/quarantined): a host
	// not up is missing from every placement.
	Status string `json:"status"`
	// Group is the host's group within its site.
	Group string `json:"group"`
	// CPULoad and AvailMemBytes are the last workload the Group Manager
	// wrote for the host.
	CPULoad       float64 `json:"cpu_load"`
	AvailMemBytes int64   `json:"avail_mem_bytes"`
	// Arch, OS and Speed describe the machine: architecture, operating
	// system and speed relative to the base processor.
	Arch  string  `json:"arch"`
	OS    string  `json:"os"`
	Speed float64 `json:"speed"`
}
