// Command loadgen drives a running streamd with closed-loop clients and
// prints a JSON report of admission verdict counts and latency percentiles;
// with -verify it also checks every archive or row against what was sent,
// and any mismatch exits 1:
//
//	loadgen -addr localhost:7070 -clients 16 -requests 64 -verify > run.json
//	loadgen -addr localhost:7070 -service mandel -clients 8
//
// Against a cluster, -addr takes a comma-separated node list; clients spread
// across the nodes, follow TRedirect verdicts to tenant owners, fail over
// when a node dies mid-stream, and the report adds per-node throughput:
//
//	loadgen -addr host1:7070,host2:7070,host3:7070 -verify > cluster.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"streamgpu/internal/loadgen"
	"streamgpu/internal/server/wire"
)

func main() {
	addr := flag.String("addr", "localhost:7070", "streamd address, or a comma-separated cluster node list")
	service := flag.String("service", "dedup", "target service: dedup or mandel")
	clients := flag.Int("clients", 8, "closed-loop client connections")
	requests := flag.Int("requests", 32, "requests per client")
	tenants := flag.Int("tenants", 4, "spread clients across this many tenant IDs")
	minBytes := flag.Int("min-bytes", 1<<10, "dedup: min request payload")
	maxBytes := flag.Int("max-bytes", 64<<10, "dedup: max request payload")
	dim := flag.Int("dim", 256, "mandel: image dimension")
	niter := flag.Int("niter", 256, "mandel: max iterations")
	rows := flag.Int("rows", 16, "mandel: max rows per request")
	seed := flag.Int64("seed", 1, "payload RNG seed")
	verify := flag.Bool("verify", false, "restore every archive / recompute every row and compare")
	dialTimeout := flag.Duration("dial-timeout", 5*time.Second, "per-client dial timeout")
	deadline := flag.Duration("deadline", 0, "per-request deadline shipped on the wire (0 = none)")
	retries := flag.Int("retries", 0, "re-offers per rejected request, honoring retry-after hints")
	backoffCap := flag.Duration("backoff-cap", time.Second, "max sleep before one retry")
	firstTenant := flag.Uint("first-tenant", 0, "offset for the tenant ID range")
	flag.Parse()

	var svc wire.Svc
	switch *service {
	case "dedup":
		svc = wire.SvcDedup
	case "mandel":
		svc = wire.SvcMandel
	default:
		fmt.Fprintf(os.Stderr, "loadgen: unknown service %q (want dedup or mandel)\n", *service)
		os.Exit(2)
	}

	var addrs []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}

	rep, err := loadgen.Run(loadgen.Config{
		Addrs:       addrs,
		Service:     svc,
		Clients:     *clients,
		Requests:    *requests,
		Tenants:     *tenants,
		MinBytes:    *minBytes,
		MaxBytes:    *maxBytes,
		Dim:         *dim,
		Niter:       *niter,
		RowsPerReq:  *rows,
		FirstTenant: uint32(*firstTenant),
		Seed:        *seed,
		Verify:      *verify,
		DialTimeout: *dialTimeout,
		Deadline:    *deadline,
		Retries:     *retries,
		BackoffCap:  *backoffCap,
	})
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if encErr := enc.Encode(rep); encErr != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", encErr)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	if rep.RestoreFailures > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d restore failures\n", rep.RestoreFailures)
		os.Exit(1)
	}
}
