package main

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vdce"
	"vdce/internal/detect"
	"vdce/internal/testbed"
)

// newServer spins a two-site environment behind its editor HTTP API,
// with one monitor round and one detector round on a synthetic clock.
func newServer(t *testing.T) (*httptest.Server, *vdce.Environment, time.Time) {
	t.Helper()
	env, err := vdce.New(vdce.Config{
		Testbed: testbed.Config{Sites: 2, GroupsPerSite: 2, HostsPerGroup: 2, Seed: 13},
		Detect:  detect.Config{SuspicionTimeout: time.Second, ConfirmQuorum: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	t0 := time.Unix(5000, 0)
	if err := env.RefreshMonitoring(t0); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Detector.Tick(t0); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(env.EditorServer(0).Handler())
	t.Cleanup(srv.Close)
	return srv, env, t0
}

// rows runs the command and returns its host rows by host name, each
// split into its columns.
func rows(t *testing.T, args ...string) map[string][]string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !strings.HasPrefix(lines[0], "HOST") {
		t.Fatalf("no header:\n%s", out.String())
	}
	got := make(map[string][]string)
	for _, l := range lines[1:] {
		f := strings.Fields(l)
		got[f[0]] = f
	}
	return got
}

func TestListsEveryHostOfEverySite(t *testing.T) {
	srv, env, _ := newServer(t)
	got := rows(t, "-server", srv.URL)
	if len(got) != len(env.TB.AllHosts()) {
		t.Fatalf("%d rows, want %d hosts", len(got), len(env.TB.AllHosts()))
	}
	for _, h := range env.TB.AllHosts() {
		f, ok := got[h.Name]
		if !ok {
			t.Fatalf("host %s of %s not listed", h.Name, h.Site)
		}
		site, _ := env.TB.Site(h.Site)
		v, _ := site.Repo.Resources.View(h.Name)
		want := []string{h.Name, v.Group, "up", fmt.Sprintf("%.2f", v.CPULoad), fmt.Sprint(v.AvailMem >> 20),
			v.ArchType, v.OSType, fmt.Sprintf("(x%.2f)", v.SpeedFactor)}
		if strings.Join(f, " ") != strings.Join(want, " ") {
			t.Errorf("row %q, want the repository's %q", f, want)
		}
	}
}

func TestGroupAndUpFilterRows(t *testing.T) {
	srv, env, t0 := newServer(t)
	victim := env.TB.Sites[1].Hosts[0]
	victim.Fail()
	at := t0.Add(2 * time.Second)
	if err := env.RefreshMonitoring(at); err != nil {
		t.Fatal(err)
	}
	if _, err := env.Detector.Tick(at); err != nil {
		t.Fatal(err)
	}

	all := rows(t, "-server", srv.URL)
	if f := all[victim.Name]; len(f) < 3 || f[2] != "down" {
		t.Fatalf("confirmed-dead host row %q, want status down", f)
	}
	up := rows(t, "-server", srv.URL, "-up")
	if _, ok := up[victim.Name]; ok || len(up) != len(all)-1 {
		t.Fatalf("-up listed %d rows (victim listed: %v), want %d", len(up), ok, len(all)-1)
	}
	group := victim.Group
	inGroup := rows(t, "-server", srv.URL, "-group", group)
	want := 0
	for _, h := range env.TB.AllHosts() {
		if h.Group == group {
			want++
		}
	}
	if len(inGroup) != want || want == 0 {
		t.Fatalf("-group %s listed %d rows, want %d", group, len(inGroup), want)
	}
	for name, f := range inGroup {
		if f[1] != group {
			t.Fatalf("-group %s listed %s of group %s", group, name, f[1])
		}
	}
}

func TestBadCredentialsFail(t *testing.T) {
	srv, _, _ := newServer(t)
	var out strings.Builder
	if err := run([]string{"-server", srv.URL, "-pass", "wrong"}, &out); err == nil {
		t.Fatalf("run with a wrong password succeeded:\n%s", out.String())
	}
	if err := run([]string{"-server", srv.URL, "-user", "nobody"}, &out); err == nil {
		t.Fatalf("run with an unknown user succeeded:\n%s", out.String())
	}
}
