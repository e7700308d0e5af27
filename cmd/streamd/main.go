// Command streamd runs the resident streaming service front-end: the Dedup
// and Mandelbrot pipelines as long-lived services behind the length-prefixed
// wire protocol (internal/server/wire), with bounded admission, cross-request
// batch coalescing, per-tenant metrics, and graceful drain on SIGINT/SIGTERM:
//
//	streamd -addr :7070 -metrics-addr :7071 -max-inflight 128
//	streamd -addr :7070 -gpu -fault-kernel 0.01     # GPU path with faults
//	streamd -tenant-weights default:4,9:1:2.5e5 -default-deadline 100ms
//	streamd -gpu -fleet 'titanxp*4' -probe-interval 1s  # health-aware device pool
//
// With -cluster, streamd runs as one node of a consistent-hash sharded
// cluster (internal/cluster): tenants are placed on nodes by a seeded ring,
// SWIM-style gossip tracks membership, misplaced connections are redirected
// to their owner, and the dedup block index is shared cluster-wide. Start
// the first node bare and point the others at it:
//
//	streamd -cluster -addr :7070 -advertise host1:7070
//	streamd -cluster -addr :7070 -advertise host2:7070 -join host1:7070
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"streamgpu/internal/cluster"
	"streamgpu/internal/dedup"
	"streamgpu/internal/fault"
	"streamgpu/internal/gpu"
	"streamgpu/internal/server"
	"streamgpu/internal/server/qos"
	"streamgpu/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address for the stream protocol")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address")
	maxInflight := flag.Int("max-inflight", 64, "admission high-water mark: accepted requests in flight before TReject")
	linger := flag.Duration("linger", 2*time.Millisecond, "max wait of a partial dedup batch for the session's next frame; a session with nothing arriving and nothing being served seals at once")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "replicas of each processing stage")
	batch := flag.Int("batch", dedup.DefaultBatchSize, "dedup coalescing target in bytes")
	gpuRT := flag.Bool("gpu", false, "process dedup batches on the simulated GPU")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget on shutdown before forcing")
	faultSeed := flag.Int64("fault-seed", 0, "gpu: fault injector seed")
	faultTransfer := flag.Float64("fault-transfer", 0, "gpu: transient transfer fault rate")
	faultKernel := flag.Float64("fault-kernel", 0, "gpu: transient kernel fault rate")
	faultKill := flag.Int("fault-kill-after", 0, "gpu: kill the device after N operations")
	tenantWeights := flag.String("tenant-weights", "", "per-tenant QoS table: tenant:weight[:rate[:burst]],... (tenant may be 'default')")
	defaultDeadline := flag.Duration("default-deadline", 0, "deadline for requests that carry none on the wire (0 = off)")
	fleetSpec := flag.String("fleet", "", "gpu: device pool spec, e.g. 'titanxp*2,titanxp@clock=0.7@gen=2' (default one titanxp)")
	probeInterval := flag.Duration("probe-interval", 0, "gpu: run background diag probes this often and feed the health scoreboard (0 = off)")
	clusterMode := flag.Bool("cluster", false, "run as a cluster node (consistent-hash sharding + gossip membership)")
	join := flag.String("join", "", "cluster: comma-separated seed node addresses to gossip with")
	advertise := flag.String("advertise", "", "cluster: address peers and clients reach this node at (default: the listener's)")
	gossipInterval := flag.Duration("gossip-interval", 200*time.Millisecond, "cluster: membership probe period")
	nodeFaultSeed := flag.Int64("node-fault-seed", 0, "cluster: node-level fault injector seed")
	nodeKillAfter := flag.Int("node-kill-after", 0, "cluster: crash this node after N accepted connections/gossip ops (failover drills)")
	flag.Parse()

	table, err := qos.ParseTable(*tenantWeights)
	check(err)
	var fleet []gpu.DeviceSpec
	if *fleetSpec != "" {
		fleet, err = gpu.ParseFleet(*fleetSpec)
		check(err)
	}

	metrics := telemetry.New()
	if *metricsAddr != "" {
		msrv, err := telemetry.Serve(*metricsAddr, metrics)
		check(err)
		defer msrv.Close()
		fmt.Printf("serving metrics on http://%s/metrics\n", msrv.Addr)
	}

	scfg := server.Config{
		MaxInflight: *maxInflight,
		Linger:      *linger,
		Workers:     *workers,
		BatchSize:   *batch,
		GPU:         *gpuRT,
		Faults: fault.Config{
			Seed:         *faultSeed,
			TransferRate: *faultTransfer,
			KernelRate:   *faultKernel,
			KillAfterOps: *faultKill,
		},
		Metrics:         metrics,
		QoS:             table,
		DefaultDeadline: *defaultDeadline,
		Fleet:           fleet,
		ProbeInterval:   *probeInterval,
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *clusterMode {
		var seeds []string
		for _, a := range strings.Split(*join, ",") {
			if a = strings.TrimSpace(a); a != "" {
				seeds = append(seeds, a)
			}
		}
		node := cluster.NewNode(cluster.Config{
			Addr:           *addr,
			Advertise:      *advertise,
			Join:           seeds,
			GossipInterval: *gossipInterval,
			Faults:         fault.Config{Seed: *nodeFaultSeed, KillAfterOps: *nodeKillAfter},
			Server:         scfg,
			Metrics:        metrics,
		})
		check(node.Start())
		fmt.Printf("streamd cluster node %s (join %q)\n", node.Addr(), *join)
		select {
		case s := <-sig:
			fmt.Printf("streamd: %v — stopping node\n", s)
			check(node.Close())
			return
		case <-node.Dead():
			// The node-level fault injector (or an internal crash) killed the
			// node: exit like the process died, so supervisors restart it.
			node.Close()
			fmt.Fprintln(os.Stderr, "streamd: node died (fault injection)")
			os.Exit(1)
		}
	}

	srv := server.New(scfg)

	ln, err := net.Listen("tcp", *addr)
	check(err)
	fmt.Printf("streamd listening on %s (max-inflight %d, linger %v, gpu %v)\n",
		ln.Addr(), *maxInflight, *linger, *gpuRT)

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Printf("streamd: %v — draining (budget %v)\n", s, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		err := srv.Shutdown(ctx)
		cancel()
		<-done
		check(err)
		fmt.Println("streamd: drained cleanly")
	case err := <-done:
		check(err)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "streamd: %v\n", err)
		os.Exit(1)
	}
}
