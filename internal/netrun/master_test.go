package netrun

import (
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"mpq/internal/core"
	"mpq/internal/partition"
)

// Table-driven constructor validation: these error strings are part of
// the operational surface (they show up in mpqnode logs), so pin them.
func TestNewMasterValidationTable(t *testing.T) {
	cases := []struct {
		name    string
		addrs   []string
		opts    Options
		wantErr string
	}{
		{
			name:    "no addresses",
			addrs:   nil,
			wantErr: "netrun: no worker addresses",
		},
		{
			name:    "duplicate address",
			addrs:   []string{"a:1", "b:1", "a:1"},
			wantErr: `netrun: duplicate worker address "a:1"`,
		},
		{
			name:    "negative timeout",
			addrs:   []string{"a:1"},
			opts:    Options{Timeout: -time.Second},
			wantErr: "netrun: negative timeout -1s",
		},
		{
			name:    "negative attempt budget",
			addrs:   []string{"a:1"},
			opts:    Options{MaxAttempts: -1},
			wantErr: "netrun: negative attempt budget -1",
		},
		{
			name:    "negative worker failure limit",
			addrs:   []string{"a:1"},
			opts:    Options{MaxWorkerFailures: -2},
			wantErr: "netrun: negative worker failure limit -2",
		},
		{
			name:    "weight count mismatch",
			addrs:   []string{"a:1"},
			opts:    Options{Weights: []float64{1, 2}},
			wantErr: "netrun: 2 weights for 1 workers",
		},
		{
			name:    "zero weight",
			addrs:   []string{"a:1", "b:1"},
			opts:    Options{Weights: []float64{1, 0}},
			wantErr: "netrun: weight 1 is 0, must be positive",
		},
		{
			name:    "NaN weight",
			addrs:   []string{"a:1", "b:1"},
			opts:    Options{Weights: []float64{1, nan()}},
			wantErr: "netrun: weight 1 is NaN, must be positive",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewMasterWithOptions(c.addrs, c.opts)
			if err == nil {
				t.Fatalf("invalid config accepted: %+v", c.opts)
			}
			if err.Error() != c.wantErr {
				t.Fatalf("error %q, want %q", err.Error(), c.wantErr)
			}
		})
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// Zero values mean defaults, not zero budgets.
func TestNewMasterDefaults(t *testing.T) {
	ms, err := NewMasterWithOptions([]string{"a:1"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ms.timeout != DefaultTimeout {
		t.Fatalf("timeout = %v, want %v", ms.timeout, DefaultTimeout)
	}
	if ms.maxAttempts != DefaultMaxAttempts {
		t.Fatalf("maxAttempts = %d, want %d", ms.maxAttempts, DefaultMaxAttempts)
	}
	if ms.maxWorkerFailures != DefaultMaxWorkerFailures {
		t.Fatalf("maxWorkerFailures = %d, want %d", ms.maxWorkerFailures, DefaultMaxWorkerFailures)
	}
	// Explicit values survive.
	ms, err = NewMasterWithOptions([]string{"a:1"}, Options{
		Timeout: time.Second, MaxAttempts: 7, MaxWorkerFailures: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ms.timeout != time.Second || ms.maxAttempts != 7 || ms.maxWorkerFailures != 4 {
		t.Fatalf("options not applied: %+v", ms)
	}
}

// With every worker dead the master reports the aggregate failure, not
// a hang.
func TestOptimizeAllWorkersDead(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	ms, err := NewMasterWithOptions(addrs, Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	q := gen(t, 6, 0)
	_, err = ms.OptimizeContext(context.Background(), q, core.JobSpec{Space: partition.Linear, Workers: 2})
	if err == nil {
		t.Fatal("all-dead cluster not reported")
	}
	if !strings.Contains(err.Error(), "all 2 workers failed") {
		t.Fatalf("error %q does not report the dead cluster", err)
	}
}

// A worker that accepts the connection and the request but never
// responds leaves a half-open connection; after the master gives up it
// must have closed every connection it opened.
func TestOptimizeClosesHalfOpenConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	closed := make(chan struct{}, 16)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				// Swallow everything, answer nothing; unblocks only when the
				// peer closes or resets.
				io.Copy(io.Discard, conn)
				conn.Close()
				closed <- struct{}{}
			}(conn)
		}
	}()

	ms, err := NewMasterWithOptions([]string{ln.Addr().String()}, Options{
		Timeout:           300 * time.Millisecond,
		MaxAttempts:       2,
		MaxWorkerFailures: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := gen(t, 6, 0)
	if _, err := ms.OptimizeContext(context.Background(), q, core.JobSpec{Space: partition.Linear, Workers: 2}); err == nil {
		t.Fatal("mute worker not reported")
	}
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("master left a half-open connection dangling")
	}
}
