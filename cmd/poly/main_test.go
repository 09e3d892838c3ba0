package main

import (
	"flag"
	"io"
	"maps"
	"strings"
	"testing"
)

func TestUsageNamesEveryCommand(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"-w", "16"}} {
		var stderr strings.Builder
		if err := run(args, io.Discard, &stderr); err == nil {
			t.Errorf("run(%q) returned no error", args)
		}
		for _, name := range []string{"sim", "grid", "serve", "viz"} {
			if !strings.Contains(stderr.String(), "  "+name+" ") {
				t.Errorf("run(%q) usage does not name %s:\n%s", args, name, stderr.String())
			}
		}
	}
}

// TestFlagInventory pins every subcommand's flag names and defaults to
// the surface of the four binaries poly replaced, less sim's -checkpoint
// and -resume, and with -mem-budget in MiB everywhere.
func TestFlagInventory(t *testing.T) {
	want := map[string]map[string]string{
		"sim": {
			"w": "80", "h": "40", "k": "4", "seed": "1", "tman": "false",
			"split": "advanced", "fail-at": "20", "reinject-at": "100", "end": "200",
			"exchange-parallel": "0", "mem-budget": "0", "checkpoint-at": "-1",
			"checkpoint-dir": "", "auto-checkpoint-every": "0", "checkpoint-keep": "3",
			"resume-latest": "false", "watchdog-stall": "0s",
		},
		"serve": {
			"addr": "127.0.0.1:4600", "w": "80", "h": "40", "k": "4", "seed": "1",
			"interval": "50ms", "rounds": "0", "fail-at": "-1",
			"reinject-at": "-1", "profiles": "0", "checkpoint-dir": "",
			"auto-checkpoint-every": "0", "checkpoint-keep": "3", "resume-latest": "false",
			"selftest": "false", "duration": "2s", "workers": "4",
		},
		"grid": {
			"spec": "", "out": "results", "stamp": "", "dry-run": "false",
			"parallel": "0", "mem-budget": "0", "analyze": "", "q": "false",
		},
		"viz": {
			"w": "80", "h": "40", "k": "4", "seed": "1", "tman": "false",
			"fail-at": "20", "reinject-at": "100", "rounds": "22,28", "out": "snapshot",
		},
	}
	if len(commands) != len(want) {
		t.Fatalf("%d commands, want %d", len(commands), len(want))
	}
	for _, c := range commands {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.new().flags(fs)
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		if !maps.Equal(got, want[c.name]) {
			t.Errorf("%s flags = %v\nwant %v", c.name, got, want[c.name])
		}
	}
}
