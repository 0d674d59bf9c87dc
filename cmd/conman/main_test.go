package main

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"testing"

	"conman/internal/core"
	"conman/internal/nm"
)

// TestStoreFailureConflict pins the CLI contract for intent conflicts:
// a (possibly wrapped) ConflictError from reconcile must exit with a
// distinct non-zero code and name both colliding intents on stderr —
// not vanish into the generic failure path.
func TestStoreFailureConflict(t *testing.T) {
	ce := &nm.ConflictError{
		Device:  "A",
		Module:  core.Ref(core.NameIPv4, "A", "g"),
		IntentA: "vpn-c1", IntentB: "vpn-c2",
	}
	code, lines := storeFailure("reconcile", fmt.Errorf("store apply: %w", ce))
	if code != 3 {
		t.Errorf("conflict exit code = %d, want 3", code)
	}
	out := strings.Join(lines, "\n")
	for _, want := range []string{`"vpn-c1"`, `"vpn-c2"`, "conman reconcile", "withdraw"} {
		if !strings.Contains(out, want) {
			t.Errorf("conflict report missing %q:\n%s", want, out)
		}
	}
}

// TestStoreFailureGeneric: any other error keeps the plain exit-1 path.
func TestStoreFailureGeneric(t *testing.T) {
	code, lines := storeFailure("withdraw", fmt.Errorf("no intent %q registered", "x"))
	if code != 1 {
		t.Errorf("generic exit code = %d, want 1", code)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "conman withdraw") {
		t.Errorf("generic report = %q", lines)
	}
}

// TestHelpExitsZero pins the CLI's -h contract: every subcommand answers
// -h with its usage and exit status 0, through the one dispatcher,
// without running anything.
func TestHelpExitsZero(t *testing.T) {
	cmds := make([]string, 0, len(commands))
	for cmd := range commands {
		cmds = append(cmds, cmd)
	}
	sort.Strings(cmds)
	for _, cmd := range cmds {
		if got := runCommand([]string{cmd, "-h"}); got != 0 {
			t.Errorf("conman %s -h exited %d, want 0", cmd, got)
		}
	}
	if got := runCommand([]string{"store", "log", "-h"}); got != 0 {
		t.Errorf("conman store log -h exited %d, want 0", got)
	}
}

// TestExitCodes pins the dispatcher's mapping of subcommand errors.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"success", nil, 0},
		{"help", fmt.Errorf("parse: %w", flag.ErrHelp), 0},
		{"generic", fmt.Errorf("boom"), 1},
		{"conflict", fmt.Errorf("store apply: %w", &nm.ConflictError{IntentA: "a", IntentB: "b"}), 3},
		{"own status", exitStatus{code: 2}, 2},
		{"own status with help", exitStatus{2, flag.ErrHelp}, 0},
	}
	for _, c := range cases {
		if got := exitCode("test", c.err); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}
