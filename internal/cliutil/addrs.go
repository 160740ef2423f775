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
