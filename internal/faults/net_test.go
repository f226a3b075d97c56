package faults_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"bimode/internal/faults"
	"bimode/internal/trace"
)

// TestStallContextCancel pins the satellite contract: a stall in
// progress unblocks promptly on ctx cancellation instead of sleeping
// through it. The stall is far longer than the test's bound, so a
// regression back to time.Sleep fails loudly, and the interrupted stream
// must surface the context error (via panic), never a silent short end.
func TestStallContextCancel(t *testing.T) {
	const stall = 30 * time.Second // would blow the test deadline if slept
	const bound = 2 * time.Second  // generous CI-safe unblock bound
	cases := []struct {
		name   string
		cancel func(context.CancelFunc) // when the cancellation fires
	}{
		{"canceled before first Next", func(cancel context.CancelFunc) { cancel() }},
		{"canceled mid-stall", func(cancel context.CancelFunc) {
			go func() { time.Sleep(10 * time.Millisecond); cancel() }()
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			st := faults.StallContext(ctx, testTrace(), 1, stall).Stream()
			tc.cancel(cancel)
			start := time.Now()
			panicked := make(chan any, 1)
			go func() {
				defer func() { panicked <- recover() }()
				st.Next()
				panicked <- nil
			}()
			select {
			case v := <-panicked:
				if elapsed := time.Since(start); elapsed > bound {
					t.Errorf("Next unblocked after %v, want under %v", elapsed, bound)
				}
				err, ok := v.(error)
				if !ok || !errors.Is(err, context.Canceled) {
					t.Errorf("interrupted stall surfaced %v, want a context.Canceled-wrapping panic", v)
				}
			case <-time.After(bound + time.Second):
				t.Fatalf("Next still blocked %v after cancellation", bound+time.Second)
			}
		})
	}
}

// TestStallBackgroundUnchanged: the ctx-less Stall keeps its original
// contract — records pass through unchanged, just slower.
func TestStallBackgroundUnchanged(t *testing.T) {
	mem := testTrace()
	got := drain(t, faults.Stall(mem, 100, time.Microsecond))
	if len(got) != mem.Len() {
		t.Fatalf("stalled stream yielded %d records, want %d", len(got), mem.Len())
	}
}

// TestSlowReader: bytes arrive complete and in order, at most chunk per
// Read, and a canceled ctx stops the dribble promptly with ctx's error.
func TestSlowReader(t *testing.T) {
	payload := []byte("0x1000 1\n0x2000 0\n0x1000 1\n")
	r := faults.SlowReader(context.Background(), bytes.NewReader(payload), 5, 0)
	buf := make([]byte, 64)
	var got []byte
	for {
		n, err := r.Read(buf)
		if n > 5 {
			t.Fatalf("SlowReader delivered %d bytes in one Read, chunk is 5", n)
		}
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("SlowReader: %v", err)
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("SlowReader reordered or dropped bytes: %q != %q", got, payload)
	}

	ctx, cancel := context.WithCancel(context.Background())
	slow := faults.SlowReader(ctx, strings.NewReader("data"), 1, 30*time.Second)
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	start := time.Now()
	_, err := slow.Read(buf)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled SlowReader returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("canceled SlowReader unblocked after %v", elapsed)
	}
}

// TestCutReader: exactly n bytes pass, then ErrInjectedCut — repeatably,
// and distinguishable from EOF.
func TestCutReader(t *testing.T) {
	r := faults.CutReader(strings.NewReader("abcdefgh"), 5)
	got, err := io.ReadAll(r)
	if !errors.Is(err, faults.ErrInjectedCut) {
		t.Fatalf("CutReader ended with %v, want ErrInjectedCut", err)
	}
	if string(got) != "abcde" {
		t.Fatalf("CutReader passed %q, want the first 5 bytes", got)
	}
	if _, err := r.Read(make([]byte, 1)); !errors.Is(err, faults.ErrInjectedCut) {
		t.Errorf("re-Read after the cut returned %v, want ErrInjectedCut again", err)
	}
}

// TestFlipByte: deterministic in (data, pos), never touches the magic,
// and always differs from the input past it.
func TestFlipByte(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.WriteColumnar(&buf, testTrace()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	a := faults.FlipByte(data, 97)
	b := faults.FlipByte(data, 97)
	if !bytes.Equal(a, b) {
		t.Fatalf("FlipByte is not deterministic")
	}
	if bytes.Equal(a, data) {
		t.Fatalf("FlipByte changed nothing")
	}
	if !bytes.Equal(a[:4], data[:4]) {
		t.Fatalf("FlipByte touched the magic")
	}
	diff := 0
	for i := range a {
		if a[i] != data[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("FlipByte changed %d bytes, want exactly 1", diff)
	}
	if short := faults.FlipByte([]byte("BMT1"), 3); !bytes.Equal(short, []byte("BMT1")) {
		t.Fatalf("FlipByte altered a magic-only body")
	}
}
