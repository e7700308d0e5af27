package server_test

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"streamgpu/internal/dedup"
	"streamgpu/internal/server"
	"streamgpu/internal/server/wire"
	"streamgpu/internal/telemetry"
	"streamgpu/internal/workload"
)

// BenchmarkPipelinedSmall drives the coalescer with small requests on one
// connection, each frame written and flushed on its own, in two shapes on
// either side of the seal policy's choice:
//
//   - windowW: closed loop, up to W requests unanswered. Frames arrive
//     while earlier batches are served, so batching pays.
//   - gapG: open loop, one request every G (unbounded window). At 1ms the
//     server keeps up and a request has nothing to wait for.
//
// One op is one session of 256 8 KiB requests (2 MiB). Beside throughput it
// reports batches per request, mean batch fill, p50 request latency, the
// share of requests rejected, and the whole process's CPU seconds per GB
// (client included).
//
//	go test ./internal/server -run '^$' -bench PipelinedSmall -benchtime 16x
func BenchmarkPipelinedSmall(b *testing.B) {
	for _, gpu := range []bool{false, true} {
		dev := "cpu"
		if gpu {
			dev = "gpu"
		}
		for _, w := range []int{8, 64} {
			b.Run(fmt.Sprintf("%s/window%d", dev, w), func(b *testing.B) { benchPipelined(b, gpu, w, 0) })
		}
		for _, gap := range []time.Duration{250 * time.Microsecond, time.Millisecond} {
			b.Run(fmt.Sprintf("%s/gap%v", dev, gap), func(b *testing.B) { benchPipelined(b, gpu, 0, gap) })
		}
	}
}

func benchPipelined(b *testing.B, gpu bool, window int, gap time.Duration) {
	const reqs, size = 256, 8 << 10
	if window == 0 {
		window = reqs
	}
	reg := telemetry.New()
	srv := server.New(server.Config{GPU: gpu, Metrics: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Errorf("Shutdown: %v", err)
		}
		<-serveErr
	}()
	data := workload.Generate(workload.Spec{Kind: workload.Silesia, Size: reqs * size, Seed: 12})
	b.SetBytes(reqs * size)

	var lat []time.Duration
	rejected := 0
	var ru0, ru1 syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, r := pipelineSession(b, ln.Addr().String(), data, size, window, gap)
		lat, rejected = append(lat, l...), rejected+r
	}
	b.StopTimer()
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)

	var batches int64
	for _, trigger := range []string{"full", "idle", "linger", "flush", "end"} {
		batches += reg.Counter("server_batches_sealed_total", telemetry.Labels{"trigger": trigger}).Value()
	}
	batchBytes := reg.Counter("server_batch_bytes_total", telemetry.Labels{}).Value()
	n := float64(b.N * reqs)
	b.ReportMetric(float64(batches)/n, "batches/req")
	b.ReportMetric(float64(batchBytes)/float64(batches)/dedup.DefaultBatchSize, "fill")
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		b.ReportMetric(float64(lat[len(lat)/2].Microseconds())/1e3, "p50_ms")
	}
	b.ReportMetric(float64(rejected)/n, "rejected/req")
	cpu := syscall.TimevalToNsec(ru1.Utime) + syscall.TimevalToNsec(ru1.Stime) -
		syscall.TimevalToNsec(ru0.Utime) - syscall.TimevalToNsec(ru0.Stime)
	b.ReportMetric(float64(cpu)/(n*size), "cpu_s/GB")
}

// pipelineSession sends data as size-byte requests over one new connection,
// each frame flushed alone, one every gap (0: back to back) and at most
// window unanswered. It returns each answered request's latency, from its
// send to its result, and the number rejected.
func pipelineSession(b *testing.B, addr string, data []byte, size, window int, gap time.Duration) ([]time.Duration, int) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	reqs := len(data) / size
	start := time.Now()
	sent := make([]atomic.Int64, reqs) // send time, as an offset from start
	slots := make(chan struct{}, window)
	sendErr := make(chan error, 1)
	go func() {
		fw := wire.NewWriter(conn)
		for k := 0; k < reqs; k++ {
			slots <- struct{}{}
			time.Sleep(time.Until(start.Add(time.Duration(k) * gap)))
			sent[k].Store(int64(time.Since(start)))
			fw.Write(wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: uint64(k), Payload: data[k*size : (k+1)*size]})
			if err := fw.Flush(); err != nil {
				sendErr <- err
				return
			}
		}
		fw.Write(wire.Frame{Type: wire.TEnd})
		sendErr <- fw.Flush()
	}()
	fr := wire.NewReader(conn, 8<<20)
	lat := make([]time.Duration, 0, reqs)
	rejected := 0
	for k := 0; k < reqs; k++ {
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		f, err := fr.Next()
		switch {
		case err != nil:
			b.Fatalf("request %d: %v", k, err)
		case f.Type == wire.TResult:
			lat = append(lat, time.Since(start)-time.Duration(sent[f.Seq].Load()))
		case f.Type == wire.TReject:
			rejected++
		default:
			b.Fatalf("request %d: unexpected %s", k, f.Type)
		}
		<-slots
	}
	if err := <-sendErr; err != nil {
		b.Fatal(err)
	}
	for {
		f, err := fr.Next()
		if err != nil {
			b.Fatalf("awaiting end: %v", err)
		}
		if f.Type == wire.TEnd {
			return lat, rejected
		}
	}
}
