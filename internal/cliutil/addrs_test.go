package cliutil

import "testing"

func TestNormalizeAddr(t *testing.T) {
	cases := map[string]string{
		" host:9000 ": "host:9000",
		":9000":       ":9000",
		"[::1]:80":    "[::1]:80",
	}
	for in, want := range cases {
		got, err := NormalizeAddr(in)
		if err != nil {
			t.Errorf("NormalizeAddr(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("NormalizeAddr(%q) = %q, want %q", in, got, want)
		}
	}
	if _, err := NormalizeAddr("bare-host"); err == nil {
		t.Error("NormalizeAddr accepted a portless address")
	}
}
