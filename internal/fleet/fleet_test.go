package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// testConfig is a small, fast service shape shared by the tests:
// loopback listeners on ephemeral ports, quick heartbeats so failover
// drills finish in tens of milliseconds, and background traffic on so
// the control plane is exercised over a busy fabric.
func testConfig() Config {
	return Config{
		Spines: 2, Leaves: 3, HostsPerLeaf: 4,
		Traffic:           true,
		HeartbeatInterval: 10 * time.Millisecond,
		HTTPAddr:          "127.0.0.1:0",
		RPCAddr:           "127.0.0.1:0",
	}
}

func startService(t testing.TB, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { s.Stop() })
	return s
}

// waitReady polls Ready until it holds or the deadline passes,
// returning how long it took.
func waitReady(t testing.TB, s *Service, deadline time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	for time.Since(start) < deadline {
		if s.Ready() {
			return time.Since(start)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("service not ready after %v", deadline)
	return 0
}

func httpGet(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestFleetLifecycle boots the daemon core, drives it over both
// operator surfaces (HTTP and RPC), shuts it down cleanly, and checks
// no goroutine outlives the service.
func TestFleetLifecycle(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := startService(t, testConfig())
	waitReady(t, s, 2*time.Second)

	client := &http.Client{}
	defer client.CloseIdleConnections()
	base := "http://" + s.HTTPAddr()

	// healthz: ready, bootstrap leader, term 1.
	var hz healthzPayload
	if code := httpGet(t, client, base+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz: code %d", code)
	}
	if !hz.Ready || hz.Leader != "seeder-a" || hz.Term != 1 {
		t.Fatalf("healthz: %+v", hz)
	}

	// RPC roundtrip: ping, submit, status, retire.
	c, err := Dial(s.RPCAddr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	cat, err := c.Catalogue()
	if err != nil || len(cat) == 0 {
		t.Fatalf("Catalogue: %v (%d tasks)", err, len(cat))
	}
	if err := c.Submit("hh"); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := c.Submit("hh"); err != nil {
		t.Fatalf("idempotent Submit: %v", err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if len(st.Tasks) != 1 || st.Tasks[0].Name != "hh" || st.Tasks[0].Seeds == 0 {
		t.Fatalf("status after submit: %+v", st)
	}

	// HTTP mutation path: POST /tasks, /tasks listing, DELETE.
	resp, err := client.Post(base+"/tasks", "application/json", strings.NewReader(`{"name":"syn-flood"}`))
	if err != nil {
		t.Fatalf("POST /tasks: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /tasks: code %d", resp.StatusCode)
	}
	var listed StatusSnapshot
	httpGet(t, client, base+"/tasks", &listed)
	if len(listed.Tasks) != 2 {
		t.Fatalf("GET /tasks: want 2 tasks, got %+v", listed.Tasks)
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/tasks/syn-flood", nil)
	dresp, err := client.Do(req)
	if err != nil {
		t.Fatalf("DELETE /tasks: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /tasks: code %d", dresp.StatusCode)
	}

	// Metrics reflect a live fabric: traffic flowing, one task placed.
	time.Sleep(50 * time.Millisecond)
	var m MetricsSnapshot
	httpGet(t, client, base+"/metrics", &m)
	if m.Tasks != 1 || m.PlacedSeeds == 0 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.Delivered == 0 {
		t.Fatalf("metrics: no traffic delivered")
	}

	if err := c.Retire("hh"); err != nil {
		t.Fatalf("Retire: %v", err)
	}
	if err := c.Retire("hh"); err != nil {
		t.Fatalf("idempotent Retire: %v", err)
	}

	// Drain: submissions refused, reads still served.
	s.Drain()
	if err := s.Submit("hh"); err != ErrDraining {
		t.Fatalf("submit while draining: %v", err)
	}
	if code := httpGet(t, client, base+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: code %d", code)
	}
	if _, err := s.Status(); err != nil {
		t.Fatalf("status while draining: %v", err)
	}

	if err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if err := s.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}

	// Post-stop: mutations fail fast rather than hanging.
	if err := s.Retire("hh"); err == nil {
		t.Fatalf("retire after stop: want error")
	}

	// Goroutine-leak check: allow the netpoller and closed connections a
	// moment to unwind.
	client.CloseIdleConnections()
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetFailover kills the active replica and checks the standby
// takes over within the heartbeat-timeout bound with no task loss.
func TestFleetFailover(t *testing.T) {
	cfg := testConfig()
	s := startService(t, cfg)
	waitReady(t, s, 2*time.Second)

	for _, task := range []string{"hh", "syn-flood", "port-scan"} {
		if err := s.Submit(task); err != nil {
			t.Fatalf("Submit %s: %v", task, err)
		}
	}
	digestBefore, err := s.PlacementDigest()
	if err != nil {
		t.Fatalf("digest: %v", err)
	}

	if err := s.KillLeader(); err != nil {
		t.Fatalf("KillLeader: %v", err)
	}
	if s.Ready() {
		t.Fatalf("ready immediately after leader kill")
	}

	// The standby must notice heartbeat silence and finish its takeover
	// replan within the timeout plus a few detection intervals (wide
	// wall-clock slack for race-mode scheduling).
	bound := s.cfg.HeartbeatTimeout + 10*s.cfg.HeartbeatInterval + 2*time.Second
	gap := waitReady(t, s, bound)
	t.Logf("failover: ready again after %v (bound %v)", gap, bound)

	name, term, ok := s.Leader()
	if !ok || name != "seeder-b" || term != 2 {
		t.Fatalf("leader after failover: %s term=%d ok=%v", name, term, ok)
	}
	if s.Takeovers() != 1 {
		t.Fatalf("takeovers: %d", s.Takeovers())
	}

	names, err := s.TaskNames()
	if err != nil {
		t.Fatalf("TaskNames: %v", err)
	}
	if fmt.Sprint(names) != "[hh port-scan syn-flood]" {
		t.Fatalf("tasks after failover: %v", names)
	}
	digestAfter, err := s.PlacementDigest()
	if err != nil {
		t.Fatalf("digest: %v", err)
	}
	if digestBefore == "" || digestAfter == "" {
		t.Fatalf("empty digest")
	}

	// The new leader accepts mutations.
	if err := s.Submit("entropy"); err != nil {
		t.Fatalf("submit on new leader: %v", err)
	}
	if err := s.Retire("entropy"); err != nil {
		t.Fatalf("retire on new leader: %v", err)
	}

	// A second kill exhausts the pair: no third replica exists.
	if err := s.KillLeader(); err != nil {
		t.Fatalf("second KillLeader: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := s.Submit("hh-sketch"); err == nil {
		t.Fatalf("submit with both replicas dead: want error")
	}
}
