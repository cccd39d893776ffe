package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"portsim/internal/cpustack"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServerServesLiveMetricsMidRun is the acceptance-criterion test for
// the -listen endpoint: while cells are still completing, /metrics must
// serve the campaign gauges and successive scrapes must observe progress.
func TestServerServesLiveMetricsMidRun(t *testing.T) {
	reg := NewRegistry()
	camp := NewCampaign(reg, 64)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	cell := func(i int) CellSample {
		return CellSample{
			Machine:         "baseline-1port",
			Workload:        "compress",
			ConfigJSON:      []byte(fmt.Sprintf(`{"cell":%d}`, i)),
			WallSeconds:     0.01,
			Cycles:          1000,
			Insts:           800,
			PortUtilization: 0.4,
			PortRejectRate:  0.1,
		}
	}

	// First half of the campaign, then a mid-run scrape, then the rest
	// completing concurrently with more scrapes.
	for i := 0; i < 32; i++ {
		camp.CellDone(cell(i))
	}
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, "portsim_cells_done_total 32\n") {
		t.Errorf("mid-run /metrics missing done=32:\n%s", body)
	}
	if !strings.Contains(body, "portsim_cells_planned 64\n") {
		t.Errorf("mid-run /metrics missing planned gauge:\n%s", body)
	}
	if !strings.Contains(body, "portsim_sim_cycles_total 32000\n") {
		t.Errorf("mid-run /metrics missing cycle total:\n%s", body)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 32; i < 64; i++ {
			camp.CellDone(cell(i))
		}
	}()
	for i := 0; i < 20; i++ {
		get(t, base+"/metrics") // must never error or race
	}
	wg.Wait()

	_, body = get(t, base+"/metrics")
	if !strings.Contains(body, "portsim_cells_done_total 64\n") {
		t.Errorf("final /metrics missing done=64:\n%s", body)
	}
	if !strings.Contains(body, `portsim_port_utilization_bucket{le="0.4"} 64`) {
		t.Errorf("final /metrics missing utilization histogram:\n%s", body)
	}
}

func TestServerHealthz(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var health map[string]any
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if health["status"] != "ok" {
		t.Errorf("health status = %v", health["status"])
	}
}

func TestServeBadAddress(t *testing.T) {
	if _, err := Serve("256.256.256.256:99999", NewRegistry()); err == nil {
		t.Fatal("bad address accepted")
	}
}

// TestServerShutdownReleasesPort pins the graceful-shutdown contract: after
// Shutdown returns, the exact address the server held must be immediately
// bindable by a new server — no lingering listener, no TIME_WAIT surprise
// from the server's own socket.
func TestServerShutdownReleasesPort(t *testing.T) {
	reg := NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if code, _ := get(t, "http://"+addr+"/healthz"); code != http.StatusOK {
		t.Fatalf("pre-shutdown /healthz status %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still answering after Shutdown")
	}
	srv2, err := Serve(addr, reg)
	if err != nil {
		t.Fatalf("rebinding %s after shutdown: %v", addr, err)
	}
	defer srv2.Close()
	if code, _ := get(t, "http://"+addr+"/healthz"); code != http.StatusOK {
		t.Fatalf("rebound /healthz status %d", code)
	}
}

// TestServerCampaignEndpoint covers the live status plane: /campaign is a
// 404 until a campaign attaches, then reports running cells with their
// live accounting stacks and completed cells with their frozen ones, and
// /debug/pprof answers on the same mux.
func TestServerCampaignEndpoint(t *testing.T) {
	reg := NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	if code, _ := get(t, base+"/campaign"); code != http.StatusNotFound {
		t.Errorf("/campaign without a campaign: status %d, want 404", code)
	}

	camp := NewCampaign(reg, 3)
	camp.EnableCPIStack(reg)
	srv.SetCampaign(camp)

	stack := cpustack.NewStack()
	stack.Charge(cpustack.Useful, 700)
	stack.Charge(cpustack.StoreBufferFull, 300)
	camp.CellStarted(CellStartSample{
		Machine: "baseline-1port", Workload: "compress",
		ConfigJSON: []byte(`{"ports":1}`), Experiment: "F1", Stack: stack,
	})
	camp.CellDone(CellSample{
		Machine: "dual-port", Workload: "eqntott", ConfigJSON: []byte(`{"ports":2}`),
		WallSeconds: 0.1, Cycles: 1000, Insts: 900,
		PortUtilization: 0.5, PortRejectRate: 0.1,
		CPIStack: stack.Snapshot(),
	})

	code, body := get(t, base+"/campaign")
	if code != http.StatusOK {
		t.Fatalf("/campaign status %d", code)
	}
	var st CampaignStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/campaign not JSON: %v\n%s", err, body)
	}
	if st.Schema != CampaignStatusSchema || st.Planned != 3 || st.Done != 1 {
		t.Errorf("status headline wrong: %+v", st)
	}
	if st.Pending != 1 { // 3 planned - 1 done - 1 running
		t.Errorf("pending = %d, want 1", st.Pending)
	}
	if len(st.Running) != 1 || st.Running[0].Workload != "compress" ||
		st.Running[0].Experiment != "F1" || st.Running[0].Cycles != 1000 {
		t.Errorf("running cells wrong: %+v", st.Running)
	}
	if st.Running[0].CPIStack["useful"] != 700 {
		t.Errorf("running cell live stack wrong: %+v", st.Running[0].CPIStack)
	}
	if len(st.Cells) != 1 || st.Cells[0].State != "ok" || st.Cells[0].CPIStack["store-buffer-full"] != 300 {
		t.Errorf("done cells wrong: %+v", st.Cells)
	}

	// The live stack keeps moving after the snapshot: /campaign must see
	// the new total on the next scrape.
	stack.Charge(cpustack.MemFillWait, 500)
	_, body = get(t, base+"/campaign")
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Running[0].Cycles != 1500 {
		t.Errorf("second scrape cycles = %d, want 1500", st.Running[0].Cycles)
	}

	if code, _ := get(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}

	// Completing the running cell moves it out of the running set.
	camp.CellDone(CellSample{
		Machine: "baseline-1port", Workload: "compress", ConfigJSON: []byte(`{"ports":1}`),
		WallSeconds: 0.2, Cycles: 1500, Insts: 1200,
		PortUtilization: 0.4, PortRejectRate: 0.2,
		CPIStack: stack.Snapshot(),
	})
	_, body = get(t, base+"/campaign")
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Running) != 0 || st.Done != 2 {
		t.Errorf("after completion: %d running, %d done; want 0, 2", len(st.Running), st.Done)
	}
}
