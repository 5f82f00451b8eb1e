// Package protocol defines the messages VDCE components exchange:
// monitoring and failure reports flowing from Group Managers into a
// site's repository, execution records closing the prediction feedback
// loop, and the resource query a Site Manager serves over net/rpc to
// tools such as vdce-monitor. Every site of one environment lives in one
// process, so only the resource query crosses a socket; Application
// Schedulers call each other's host selection directly (internal/core).
package protocol

import (
	"time"

	"vdce/internal/repository"
)

// SiteServiceName is the rpc service name every VDCE server registers.
const SiteServiceName = "Site"

// WorkloadBatch is a Group Manager's filtered workload report: only the
// hosts whose load changed considerably since the last report.
type WorkloadBatch struct {
	Site    string
	Group   string
	Samples []HostSample
}

// HostSample pairs a host with one monitor measurement.
type HostSample struct {
	Host   string
	Sample repository.WorkloadSample
}

// FailureNotice reports an echo-detected host failure.
type FailureNotice struct {
	Host     string
	Group    string
	Detected time.Time
}

// RecoveryNotice reports a host answering echoes again.
type RecoveryNotice struct {
	Host     string
	Group    string
	Detected time.Time
}

// ExecutionRecord carries a completed task execution back to the Site
// Manager, which updates the task-performance database.
type ExecutionRecord = repository.Execution

// ResourceQuery selects hosts from the resource-performance database.
type ResourceQuery struct {
	// Group filters to one group when non-empty.
	Group string
	// UpOnly drops hosts marked down.
	UpOnly bool
}

// ResourceList is the query result.
type ResourceList struct {
	Hosts []repository.ResourceInfo
}
