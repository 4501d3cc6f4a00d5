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
		name                           string
		instances, parallel, intracell int
		duration, load                 float64
	}{
		{"instances", -3, 0, 0, 0, 0},
		{"parallel", 0, -1, 0, 0, 0},
		{"intracell-parallel", 0, 0, -2, 0, 0},
		{"duration", 0, 0, 0, -5, 0},
		{"duration", 0, 0, 0, nan, 0},
		{"duration", 0, 0, 0, inf, 0},
		{"load", 0, 0, 0, 0, -1},
		{"load", 0, 0, 0, 0, nan},
	}
	for _, c := range bad {
		err := checkNumericFlags(c.instances, c.parallel, c.intracell, c.duration, c.load)
		if err == nil || !strings.Contains(err.Error(), "-"+c.name+" ") {
			t.Errorf("%+v: err = %v, want one naming -%s", c, err, c.name)
		}
	}
	// Zero means "default"; positive values are overrides.
	for _, ok := range [][5]float64{{0, 0, 0, 0, 0}, {4, 2, 4, 32, 1.5}} {
		if err := checkNumericFlags(int(ok[0]), int(ok[1]), int(ok[2]), ok[3], ok[4]); err != nil {
			t.Errorf("%v rejected: %v", ok, err)
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
	for _, args := range []string{"-instances -3", "-duration -5", "-duration NaN", "-load -1"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadNumericFlagExitsTwo$")
		cmd.Env = append(os.Environ(), "KUNSERVE_SIM_MAIN=1", "KUNSERVE_SIM_ARGS=-exp fig2 "+args)
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%s: exit %v, want 2; output:\n%s", args, err, out)
		}
	}
}
