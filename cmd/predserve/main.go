// Command predserve runs the prediction service (internal/serve):
// branch-prediction simulation as a crash-safe HTTP service. Clients
// open sessions naming predictor specs, stream branch traces — text
// captures or "BMC1" columnar bodies — and read incremental mispredict /
// aliasing / H2P reports as the trace grows.
//
// Every acknowledged ingest is journaled before the response is sent, so
// killing the process (or the box) loses only unacknowledged requests:
// restart predserve over the same -dir and every session resumes at its
// reported cursor with byte-identical reports. SIGINT/SIGTERM drains
// gracefully: /readyz flips, new sessions are refused, in-flight work
// finishes within the -grace window.
//
// Usage:
//
//	predserve -dir /var/lib/predserve
//	predserve -addr :8470 -max-resident 32 -ingest-rate 2e6
//
//	curl -XPOST localhost:8470/v1/sessions -d '{"specs":["bimode:b=11"]}'
//	curl -XPOST localhost:8470/v1/sessions/<id>/branches --data-binary @capture.txt
//	curl localhost:8470/v1/sessions/<id>
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bimode/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "predserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("predserve", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8470", "listen address")
		dir         = fs.String("dir", "", "session journal directory (empty: a temp dir — no durability across restarts)")
		maxSessions = fs.Int("max-sessions", 1024, "cap on live sessions, resident or spilled")
		maxResident = fs.Int("max-resident", 64, "cap on sessions with predictors in memory (LRU spills past it)")
		maxInFlight = fs.Int("max-inflight", 64, "cap on concurrently executing session requests")
		maxBody     = fs.Int64("max-body", 8<<20, "cap on one request body, bytes")
		ingestRate  = fs.Float64("ingest-rate", 0, "records/second admitted across all sessions (0 = unlimited)")
		ingestBurst = fs.Float64("ingest-burst", 0, "token-bucket burst for -ingest-rate (default: the rate)")
		timeout     = fs.Duration("timeout", 30*time.Second, "per-request processing deadline")
		readTimeout = fs.Duration("read-timeout", 60*time.Second, "whole-request read deadline (bounds slow-loris bodies)")
		grace       = fs.Duration("grace", 15*time.Second, "drain window after SIGINT/SIGTERM")
		compact     = fs.Int64("compact", 4<<20, "journal size triggering compaction, bytes")
		topN        = fs.Int("top", 5, "H2P ranking length per spec report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := serve.Config{
		Dir:            *dir,
		MaxSessions:    *maxSessions,
		MaxResident:    *maxResident,
		MaxInFlight:    *maxInFlight,
		MaxBodyBytes:   *maxBody,
		IngestRate:     *ingestRate,
		IngestBurst:    *ingestBurst,
		RequestTimeout: *timeout,
		CompactBytes:   *compact,
		TopN:           *topN,
	}
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "predserve: listening on http://%s\n", ln.Addr())

	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting sessions, let in-flight requests
	// finish inside the grace window, then force-close. The shutdown
	// context must outlive the (already canceled) signal context.
	fmt.Fprintf(out, "predserve: draining (grace %v)\n", *grace)
	s.BeginDrain()
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *grace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	<-errc // Serve has returned ErrServerClosed
	fmt.Fprintln(out, "predserve: drained")
	return nil
}
