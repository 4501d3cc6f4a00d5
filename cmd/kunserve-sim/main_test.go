package main

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestCheckNumericFlags(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct {
		name                string
		instances, parallel int
		duration, load      float64
	}{
		{"instances", -3, 0, 0, 0},
		{"parallel", 0, -1, 0, 0},
		{"duration", 0, 0, -5, 0},
		{"duration", 0, 0, nan, 0},
		{"duration", 0, 0, inf, 0},
		{"load", 0, 0, 0, -1},
		{"load", 0, 0, 0, nan},
	}
	for _, c := range bad {
		err := checkNumericFlags(c.instances, c.parallel, c.duration, c.load)
		if err == nil || !strings.Contains(err.Error(), "-"+c.name+" ") {
			t.Errorf("%+v: err = %v, want one naming -%s", c, err, c.name)
		}
	}
	// Zero means "default"; positive values are overrides.
	for _, ok := range [][4]float64{{0, 0, 0, 0}, {4, 2, 32, 1.5}} {
		if err := checkNumericFlags(int(ok[0]), int(ok[1]), ok[2], ok[3]); err != nil {
			t.Errorf("%v rejected: %v", ok, err)
		}
	}
}

// checkInstances accepts zero (the experiment raises its own default to
// the minimum), the minimum itself, and experiments without one.
// TestBadNumericFlagExitsTwo covers the rejections.
func TestCheckInstances(t *testing.T) {
	for _, c := range []struct {
		exp       string
		instances int
	}{{"disagg", 0}, {"disagg", 4}, {"scale", 0}, {"scale", 2}, {"fig2", 1}} {
		if err := checkInstances(c.exp, c.instances); err != nil {
			t.Errorf("-exp %s -instances %d rejected: %v", c.exp, c.instances, err)
		}
	}
}

// The command exits 2 on a bad numeric flag instead of running the default
// experiment. The test binary re-executes itself as the command.
func TestBadNumericFlagExitsTwo(t *testing.T) {
	if os.Getenv("KUNSERVE_SIM_MAIN") == "1" {
		os.Args = append([]string{"kunserve-sim"}, strings.Fields(os.Getenv("KUNSERVE_SIM_ARGS"))...)
		main()
		os.Exit(0)
	}
	for _, c := range []struct{ args, msg string }{
		{"-exp fig2 -instances -3", "-instances"},
		{"-exp fig2 -duration -5", "-duration"},
		{"-exp fig2 -duration NaN", "-duration"},
		{"-exp fig2 -load -1", "-load"},
		{"-exp disagg -instances 1", ">= 4"},
		{"-exp scale -instances 1", ">= 2"},
		{"-exp fig2 -cache-evict fifo", "-prefix-caching"},
		{"-exp fig13 -stream", "-exp fig13 needs per-request records"},
		{"-exp prefix -stream", "-exp prefix needs per-request records"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadNumericFlagExitsTwo$")
		cmd.Env = append(os.Environ(), "KUNSERVE_SIM_MAIN=1", "KUNSERVE_SIM_ARGS="+c.args)
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), c.msg) {
			t.Errorf("%s: exit %v, want 2 with %q; output:\n%s", c.args, err, c.msg, out)
		}
	}
}
