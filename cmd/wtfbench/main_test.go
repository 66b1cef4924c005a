package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestUnknownExperimentRejected(t *testing.T) {
	// "server" was an experiment once; a name the table lacks must not
	// succeed by running nothing.
	for _, name := range []string{"server", "?", ""} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-exp", name}, &stdout, &stderr); code != 2 {
			t.Fatalf("-exp %q exited %d, want 2", name, code)
		}
		if stdout.Len() != 0 {
			t.Fatalf("-exp %q wrote to stdout:\n%s", name, stdout.String())
		}
		for _, e := range experiments {
			if !strings.Contains(stderr.String(), e.name) {
				t.Fatalf("-exp %q: stderr does not list %q:\n%s", name, e.name, stderr.String())
			}
		}
	}
}

func TestEveryExperimentReachable(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, e := range experiments {
		if seen[e.name] {
			t.Fatalf("experiment name %q is taken twice", e.name)
		}
		seen[e.name] = true
		if todo := pick(e.name); len(todo) != 1 || todo[0].name != e.name {
			t.Fatalf("pick(%q) = %v", e.name, todo)
		}
	}
	all := pick("all")
	if len(all) != len(experiments) {
		t.Fatalf("pick(all) runs %d of %d experiments", len(all), len(experiments))
	}
	for i, e := range all {
		if e.name != experiments[i].name {
			t.Fatalf("pick(all)[%d] = %q, want table order (%q)", i, e.name, experiments[i].name)
		}
	}
	if names := strings.Split(expNames(), "|"); len(names) != len(seen) {
		t.Fatalf("help lists %v, table has %d experiments plus all", names, len(experiments))
	}
}

func TestJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig3", "-quick", "-duration", "20ms", "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var obj struct {
		Experiment string
		Result     map[string]any
	}
	if err := dec.Decode(&obj); err != nil {
		t.Fatalf("stdout is not a JSON object: %v", err)
	}
	if obj.Experiment != "fig3" || len(obj.Result) == 0 {
		t.Fatalf("object = %+v", obj)
	}
	if dec.More() {
		t.Fatal("more than one object on stdout")
	}
}
