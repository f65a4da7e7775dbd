package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"
	"time"

	"cxlpmem/internal/cluster"
	"cxlpmem/internal/cxl"
	"cxlpmem/internal/telemetry"
	"cxlpmem/internal/units"
)

// runTop is the fleet dashboard: it enables the telemetry plane over
// the whole pool, keeps background tenant traffic flowing so the
// figures move, and renders a per-port / per-tenant table every
// interval — what an operator watching a fabric appliance would see.
// With -serve the same registry is exported as Prometheus text and
// JSON for scraping while the table runs.
func runTop(e *cluster.Elastic, args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	iterations := fs.Int("iterations", 0, "refreshes before exiting (0 = forever)")
	interval := fs.Duration("interval", time.Second, "refresh interval")
	serve := fs.String("serve", "", "also serve /metrics on this address (e.g. 127.0.0.1:0)")
	driveMiB := fs.Int("drive", 1, "background traffic per host per refresh (MiB, 0 = none)")
	must(fs.Parse(args))

	reg := telemetry.NewRegistry()
	e.EnableTelemetry(reg, cxl.TelemetryOptions{SampleN: 8})
	if *serve != "" {
		srv, err := telemetry.Serve(*serve, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("metrics: http://%s/metrics (Prometheus), /metrics.json, /debug/pprof\n", srv.Addr())
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	if *driveMiB > 0 {
		for i := range e.Hosts {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := e.Drive(i, units.Size(*driveMiB)*units.MiB); err != nil {
						log.Printf("host%d traffic: %v", i, err)
						return
					}
				}
			}(i)
		}
	}

	for it := 0; *iterations == 0 || it < *iterations; it++ {
		time.Sleep(*interval)
		renderTop(e, reg)
	}
	close(stop)
	wg.Wait()
}

// labelVal extracts one value from a rendered label set like
// `{port="rp-h0",op="read"}`.
func labelVal(labels, key string) string {
	i := strings.Index(labels, key+`="`)
	if i < 0 {
		return ""
	}
	rest := labels[i+len(key)+2:]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}

func renderTop(e *cluster.Elastic, reg *telemetry.Registry) {
	samples := reg.Gather()
	portCtr := map[string]map[string]float64{}   // port -> metric -> value
	tenantCtr := map[string]map[string]float64{} // tenant -> metric -> value
	hists := map[string]*telemetry.HistSnapshot{}
	var poolFree float64
	for _, s := range samples {
		switch {
		case s.Name == "cxl_port_latency_ns":
			hists[labelVal(s.Labels, "port")+"/"+labelVal(s.Labels, "op")] = s.Hist
		case strings.HasPrefix(s.Name, "cxl_port_"):
			p := labelVal(s.Labels, "port")
			if portCtr[p] == nil {
				portCtr[p] = map[string]float64{}
			}
			portCtr[p][s.Name] = s.Value
		case strings.HasPrefix(s.Name, "fabric_tenant_"):
			t := labelVal(s.Labels, "tenant")
			if tenantCtr[t] == nil {
				tenantCtr[t] = map[string]float64{}
			}
			tenantCtr[t][s.Name] = s.Value
		case s.Name == "fabric_pool_remaining_bytes":
			poolFree = s.Value
		}
	}

	now := time.Now().Format("15:04:05")
	fmt.Printf("── fabricctl top @ %s — pool free %v\n", now, units.Size(poolFree))
	fmt.Printf("%-10s %10s %9s %12s %12s %12s\n",
		"PORT", "ISSUED", "RETRIES", "p50(burst)", "p99(burst)", "p99(read)")
	for _, p := range sortedKeys(portCtr) {
		c := portCtr[p]
		fmt.Printf("%-10s %10.0f %9.0f %12s %12s %12s\n",
			p, c["cxl_port_issued_total"], c["cxl_port_retries_total"],
			quantileUS(hists[p+"/burst"], 0.5), quantileUS(hists[p+"/burst"], 0.99), quantileUS(hists[p+"/read"], 0.99))
	}
	fmt.Printf("%-10s %12s %12s %14s %14s\n", "TENANT", "ACTIVE", "QUOTA", "READ BYTES", "WRITE BYTES")
	for _, t := range sortedKeys(tenantCtr) {
		c := tenantCtr[t]
		fmt.Printf("%-10s %12v %12v %14v %14v\n",
			t, units.Size(c["fabric_tenant_active_bytes"]), units.Size(c["fabric_tenant_quota_bytes"]),
			units.Size(c["fabric_tenant_read_bytes_total"]), units.Size(c["fabric_tenant_write_bytes_total"]))
	}
}

func sortedKeys(m map[string]map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// quantileUS renders a latency quantile in microseconds.
func quantileUS(h *telemetry.HistSnapshot, q float64) string {
	if h == nil || h.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fµs", float64(h.Quantile(q))/1e3)
}

// runTrace drives traffic through one host's port with every
// transaction sampled, then plays back the port's flight recorder —
// the flit-level wire history an engineer would pull when a link is
// misbehaving.
func runTrace(e *cluster.Elastic, args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	port := fs.Int("port", 0, "host index whose port to trace")
	n := fs.Int("n", 32, "newest flits to print")
	mib := fs.Int("mib", 1, "traffic to drive before dumping (MiB)")
	must(fs.Parse(args))
	if *port < 0 || *port >= len(e.Hosts) {
		log.Fatalf("port %d outside 0..%d", *port, len(e.Hosts)-1)
	}

	reg := telemetry.NewRegistry()
	e.EnableTelemetry(reg, cxl.TelemetryOptions{SampleN: 1})
	if *mib > 0 {
		if _, err := e.Drive(*port, units.Size(*mib)*units.MiB); err != nil {
			log.Fatal(err)
		}
	}
	h := e.Hosts[*port]
	rec := h.Port.FlightRecorder()
	flits := rec.Dump()
	fmt.Printf("port %s: %d flits recorded, newest %d:\n", h.Port.Name(), rec.Recorded(), min(*n, len(flits)))
	if len(flits) > *n {
		flits = flits[len(flits)-*n:]
	}
	for _, f := range flits {
		fmt.Println(" ", f.String())
	}
}
