// Healthcare demonstrates the paper's motivating scenario end to end with
// real cryptography over real TCP connections: two hospitals hold private
// patient registries; a medical researcher (the querying party) wants to
// know which patients appear in both, without either hospital disclosing
// records that do not match.
//
// The three parties run as goroutines connected by localhost TCP — the
// same wiring works across machines with pprl.RunSMCAlice / RunSMCBob and
// pprl.NewSMCNetConn on each host.
//
//	go run ./examples/healthcare
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"

	"pprl"
	"pprl/internal/blocking"
	"pprl/internal/heuristic"
	"pprl/internal/index"
	"pprl/internal/smc"
)

func main() {
	// --- The hospitals' private registries -------------------------------
	schema := pprl.AdultSchema()
	population := pprl.GenerateAdult(schema, 300, 1)
	hospitalA, hospitalB := pprl.SplitOverlap(population, rand.New(rand.NewSource(2)))
	fmt.Printf("Hospital A: %d patients.  Hospital B: %d patients.\n", hospitalA.Len(), hospitalB.Len())

	// --- The researcher's classifier -------------------------------------
	qidNames := pprl.DefaultAdultQIDs()
	qids, err := schema.Resolve(qidNames)
	if err != nil {
		log.Fatal(err)
	}
	rule, err := blocking.RuleFor(schema, qids, 0.05)
	if err != nil {
		log.Fatal(err)
	}

	// --- Step 1: each hospital publishes a k-anonymized view -------------
	anonA, err := pprl.NewMaxEntropy().Anonymize(hospitalA, qids, 8)
	if err != nil {
		log.Fatal(err)
	}
	anonB, err := pprl.NewMaxEntropy().Anonymize(hospitalB, qids, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Anonymized views: %d and %d generalization sequences (k=8).\n",
		anonA.NumSequences(), anonB.NumSequences())

	// --- Step 2: the researcher blocks on the public views ---------------
	block, err := index.Block(anonA, anonB, rule)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Blocking: %.2f%% of %d pairs decided for free; %d pairs unknown.\n",
		100*block.Efficiency(), block.TotalPairs(), block.UnknownPairs)

	// --- Step 3: unknown pairs go to the three-party SMC protocol --------
	spec, err := smc.SpecFromRule(rule, 1)
	if err != nil {
		log.Fatal(err)
	}
	encA := smc.EncodeRecords(hospitalA, qids, 1)
	encB := smc.EncodeRecords(hospitalB, qids, 1)

	// Wire the parties over localhost TCP: researcher<->A, researcher<->B,
	// A<->B.
	qa, aq := tcpPair()
	qb, bq := tcpPair()
	ab, ba := tcpPair()
	errs := make(chan error, 2)
	go func() { errs <- smc.RunAlice(aq, ab, encA, spec) }()
	go func() { errs <- smc.RunBob(bq, ba, encB, spec) }()

	session, err := smc.NewQuerySession(qa, qb, spec, 1024)
	if err != nil {
		log.Fatal(err)
	}

	// Resolve the unknown pairs most likely to match first, under a
	// budget of 1.5% of all pairs.
	allowance := int64(0.015 * float64(block.TotalPairs()))
	ordered := heuristic.Order(block, rule, heuristic.MinAvgFirst{}, false)
	matched := 0
	budget := allowance
groups:
	for _, gp := range ordered {
		for _, i := range anonA.Classes[gp.RI].Members {
			for _, j := range anonB.Classes[gp.SI].Members {
				if budget <= 0 {
					break groups
				}
				ok, err := session.Compare(i, j)
				if err != nil {
					log.Fatal(err)
				}
				if ok {
					matched++
					fmt.Printf("  SMC match: patient A#%d ↔ B#%d\n",
						hospitalA.Record(i).EntityID, hospitalB.Record(j).EntityID)
				}
				budget--
			}
		}
	}
	if err := session.Close(); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("SMC step: %d invocations at 1024-bit keys over TCP, %d additional matches;\n",
		session.Invocations(), matched)
	fmt.Printf("%d pairs were already matched by blocking alone.\n", block.MatchedPairs)
	fmt.Println("The researcher learned only the matching pairs; the hospitals exchanged")
	fmt.Println("only anonymized views and ciphertexts.")
}

// tcpPair opens a loopback TCP connection and wraps both ends as protocol
// transports.
func tcpPair() (pprl.SMCConn, pprl.SMCConn) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	client, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	server := <-ch
	if server.err != nil {
		log.Fatal(server.err)
	}
	return pprl.NewSMCNetConn(client), pprl.NewSMCNetConn(server.c)
}
