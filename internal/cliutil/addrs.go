package cliutil

import (
	"fmt"
	"net"
	"strings"
)

// NormalizeAddr validates and canonicalizes a TCP address for dialing or
// listening: host:port with the host optionally empty (":9000" binds all
// interfaces). The CLI front ends run every user-supplied address through
// it so a typo fails at flag parsing, not minutes later inside a dial
// retry loop.
func NormalizeAddr(raw string) (string, error) {
	addr := strings.TrimSpace(raw)
	if addr == "" {
		return "", fmt.Errorf("empty address")
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("bad address %q: %v", raw, err)
	}
	if port == "" {
		return "", fmt.Errorf("address %q has no port", raw)
	}
	return net.JoinHostPort(host, port), nil
}

// WorkerAddrs collects fleet worker addresses as a flag.Value: the flag
// may repeat, each occurrence may carry a comma-separated list, and the
// result is validated, canonicalized, and deduplicated in first-seen
// order:
//
//	-worker a:9101 -worker b:9101,c:9101
//
// pprl-link and pprl-serve each register one as their -worker flag.
type WorkerAddrs []string

// String implements flag.Value.
func (a *WorkerAddrs) String() string { return strings.Join(*a, ",") }

// Set implements flag.Value: parse one occurrence of the flag.
func (a *WorkerAddrs) Set(v string) error {
	for _, raw := range strings.Split(v, ",") {
		addr, err := NormalizeAddr(raw)
		if err != nil {
			return fmt.Errorf("worker address: %w", err)
		}
		seen := false
		for _, have := range *a {
			if have == addr {
				seen = true
				break
			}
		}
		if !seen {
			*a = append(*a, addr)
		}
	}
	return nil
}
