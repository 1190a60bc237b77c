package main

import (
	"bytes"
	"strings"
	"testing"
)

// run dispatches each subcommand to the code behind it, and refuses what
// it does not know, without exiting the process.
func TestRunDispatch(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // substring of the output; "" = must fail
	}{
		{[]string{"fig", "lazy", "-mode", "sim"}, "Figure La  (workload 10-10-80)"},
		{[]string{"fig", "lazy", "-mode", "sim", "-format", "csv"}, "threads,vCAS,vCAS-RDTSCP,Bundle,Bundle-RDTSCP"},
		{[]string{"fig", "lazy", "-threads", "1", "-duration", "20ms", "-trials", "2"}, "Figure lazy, workload 10-10-80, native (2 trials x 20ms)"},
		{[]string{"fig", "5", "-threads", "1", "-duration", "20ms", "-trials", "1", "-keyrange", "2000", "-arm", "citrus/vcas"}, "citrus/vcas-RDTSCP"},
		{[]string{"probe", "-arm", "bst/vcas", "-duration", "10ms", "-keyrange", "200"}, "ok   bst/vcas"},
		{[]string{"fig"}, ""},
		{[]string{"fig", "6"}, ""},
		{[]string{"fig", "2", "-mode", "sim", "-arm", "bst/vcas"}, ""},
		{[]string{"fig", "2", "-mode", "emulated"}, ""},
		{[]string{"fig", "1", "-arm", "bst/vcas"}, ""},
		{[]string{"fig", "2", "-arm", "bst/locks"}, ""},
		{[]string{"fig", "2", "-threads", "0"}, ""},
		{[]string{"rqbench"}, ""},
	} {
		var out bytes.Buffer
		err := run(c.args, &out)
		switch {
		case c.want == "" && err == nil:
			t.Errorf("reproduce %v succeeded, want an error", c.args)
		case c.want != "" && err != nil:
			t.Errorf("reproduce %v: %v", c.args, err)
		case !strings.Contains(out.String(), c.want):
			t.Errorf("reproduce %v: output lacks %q:\n%s", c.args, c.want, out.String())
		}
	}
}
