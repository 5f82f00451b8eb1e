// Package control implements the VDCE Control Manager's Resource
// Controller: the Site Manager that serves a site's resource-performance
// database over TCP RPC to tools such as vdce-monitor; and the Group
// Manager that aggregates Monitor daemon measurements, forwards only
// significant changes to the site's repository, and detects host
// failures with periodic echoes.
package control

import (
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"sync/atomic"

	"vdce/internal/protocol"
	"vdce/internal/repository"
)

// SiteManager is the server software running on a VDCE Server: it
// exposes the site's resource-performance database to tools via RPC.
type SiteManager struct {
	name  string
	repo  *repository.Repository
	lis   net.Listener
	srv   *rpc.Server
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]struct{}

	closed atomic.Bool
}

// StartSiteManager serves the RPC interface of the site named name,
// whose repository is repo, on addr ("127.0.0.1:0" for an ephemeral
// port). The returned manager owns the listener; Close releases it.
func StartSiteManager(name string, repo *repository.Repository, addr string) (*SiteManager, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("control: listen: %w", err)
	}
	sm := &SiteManager{
		name:  name,
		repo:  repo,
		lis:   lis,
		srv:   rpc.NewServer(),
		conns: make(map[net.Conn]struct{}),
	}
	if err := sm.srv.RegisterName(protocol.SiteServiceName, &siteRPC{sm: sm}); err != nil {
		lis.Close()
		return nil, fmt.Errorf("control: register: %w", err)
	}
	sm.wg.Add(1)
	go sm.acceptLoop()
	return sm, nil
}

func (sm *SiteManager) acceptLoop() {
	defer sm.wg.Done()
	for {
		conn, err := sm.lis.Accept()
		if err != nil {
			return // listener closed
		}
		sm.mu.Lock()
		sm.conns[conn] = struct{}{}
		sm.mu.Unlock()
		sm.wg.Add(1)
		go func() {
			defer sm.wg.Done()
			sm.srv.ServeConn(conn)
			sm.mu.Lock()
			delete(sm.conns, conn)
			sm.mu.Unlock()
			conn.Close()
		}()
	}
}

// Addr returns the manager's listen address (for clients).
func (sm *SiteManager) Addr() string { return sm.lis.Addr().String() }

// SiteName returns the managed site's name.
func (sm *SiteManager) SiteName() string { return sm.name }

// Close stops serving and waits for in-flight connections to finish.
func (sm *SiteManager) Close() error {
	if sm.closed.Swap(true) {
		return nil
	}
	err := sm.lis.Close()
	sm.mu.Lock()
	for c := range sm.conns {
		c.Close()
	}
	sm.mu.Unlock()
	sm.wg.Wait()
	return err
}

// RepoReporter applies Group Manager reports to a site's
// resource-performance database.
type RepoReporter struct{ Repo *repository.Repository }

// ApplyWorkloads lands the whole batch as one copy-on-write epoch
// publish, so a monitor round costs schedulers one ranked-host cache
// invalidation instead of one per host.
func (r RepoReporter) ApplyWorkloads(batch protocol.WorkloadBatch) error {
	samples := make([]repository.HostSample, len(batch.Samples))
	for i, s := range batch.Samples {
		samples[i] = repository.HostSample{Host: s.Host, Sample: s.Sample}
	}
	_, err := r.Repo.Resources.UpdateWorkloads(samples)
	return err
}

// ApplyFailure marks a host down.
func (r RepoReporter) ApplyFailure(n protocol.FailureNotice) error {
	return r.Repo.Resources.SetStatus(n.Host, repository.HostDown)
}

// ApplyRecovery marks a host up again.
func (r RepoReporter) ApplyRecovery(n protocol.RecoveryNotice) error {
	return r.Repo.Resources.SetStatus(n.Host, repository.HostUp)
}

// siteRPC is the RPC surface; kept separate so only intended methods are
// exported to the network.
type siteRPC struct {
	sm *SiteManager
}

// Resources answers resource queries (used by tools and tests).
func (r *siteRPC) Resources(q protocol.ResourceQuery, resp *protocol.ResourceList) error {
	var hosts []repository.ResourceInfo
	if q.UpOnly {
		hosts = r.sm.repo.Resources.UpHosts()
	} else {
		hosts = r.sm.repo.Resources.Hosts()
	}
	for _, h := range hosts {
		if q.Group != "" && h.Group != q.Group {
			continue
		}
		resp.Hosts = append(resp.Hosts, h)
	}
	return nil
}
