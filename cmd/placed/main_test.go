package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"testing"
	"time"

	"repro/internal/service"
)

// TestMain lets a test re-run this binary as the daemon itself.
func TestMain(m *testing.M) {
	if os.Getenv("PLACED_TEST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestInstanceMustBeStoreKey: job ids are "<instance>-job-N" and job
// records are stored under them, so placed refuses at startup, with
// exit status 2, an -instance no store accepts as a key. The host-pid
// default for a shared -store-dir passes the same check.
func TestInstanceMustBeStoreKey(t *testing.T) {
	if err := service.ValidInstance(defaultInstance()); err != nil {
		t.Fatalf("default instance %q: %v", defaultInstance(), err)
	}
	for _, bad := range []string{"a b", ".hidden", "x/y"} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-addr", "127.0.0.1:0", "-instance", bad)
		cmd.Env = append(os.Environ(), "PLACED_TEST_RUN_MAIN=1")
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("placed -instance %q: %v, want exit status 2", bad, err)
		}
	}
}
