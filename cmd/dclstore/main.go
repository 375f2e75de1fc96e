// Command dclstore inspects a dclserved result store offline: the durable
// per-path archive of window results and DCL transitions the daemon writes
// under -store-dir.
//
// Usage:
//
//	dclstore -dir /var/lib/dcl ls
//	dclstore -dir /var/lib/dcl cat <path> [-since N] [-transitions] [-limit N]
//	dclstore -dir /var/lib/dcl verify [<path>]
//
// ls lists every path with its segment/record counts, byte size, index
// range, and time range. cat streams a path's records as JSON lines
// (window results by default; -transitions selects the transition events
// instead). verify re-reads every frame checking lengths and CRCs,
// reporting any torn or corrupt region. cat and verify fail on a path the
// store does not hold.
//
// Every command opens the store read-only, so it is safe on a store a
// live daemon is writing (cat/verify see the committed prefix).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"dominantlink/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dclstore: ")
	var (
		dir = flag.String("dir", "", "store directory (as given to dclserved -store-dir)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: dclstore -dir DIR {ls | cat PATH | verify [PATH]} [options]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *dir == "" || flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "ls":
		err = runLs(*dir)
	case "cat":
		err = runCat(*dir, args)
	case "verify":
		err = runVerify(*dir, args)
	default:
		log.Printf("unknown command %q", cmd)
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func openStore(dir string) (*store.Store, error) {
	return store.Open(store.Options{Dir: dir, ReadOnly: true})
}

// pathFirst splits "PATH [flags]" argument lists: the documented forms
// put the path before the subcommand flags, which stdlib flag parsing
// would otherwise treat as terminating the flags.
func pathFirst(args []string) (path string, rest []string) {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return args[0], args[1:]
	}
	return "", args
}

func runLs(dir string) error {
	s, err := openStore(dir)
	if err != nil {
		return err
	}
	defer s.Close()
	paths, err := s.Paths()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "PATH\tSEGMENTS\tRECORDS\tTRANSITIONS\tBYTES\tWINDOWS\tSPAN")
	for _, id := range paths {
		l, err := s.Log(id)
		if err != nil {
			fmt.Fprintf(tw, "%s\t(unreadable: %v)\n", id, err)
			continue
		}
		st := l.Stats()
		span := "-"
		if st.OldestNS > 0 {
			span = fmt.Sprintf("%s .. %s",
				time.Unix(0, st.OldestNS).UTC().Format(time.RFC3339),
				time.Unix(0, st.NewestNS).UTC().Format(time.RFC3339))
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t[%d,%d)\t%s\n",
			st.Path, st.Segments, st.Records, st.Transitions, st.Bytes,
			st.FirstIndex, st.NextIndex, span)
	}
	return tw.Flush()
}

func runCat(dir string, args []string) error {
	fs := flag.NewFlagSet("cat", flag.ExitOnError)
	since := fs.Int64("since", 0, "first window index to print")
	transitions := fs.Bool("transitions", false, "print transition events instead of window records")
	limit := fs.Int("limit", 0, "stop after this many records (0 = all)")
	path, rest := pathFirst(args)
	fs.Parse(rest)
	if path == "" && fs.NArg() == 1 {
		path = fs.Arg(0)
	} else if path == "" || fs.NArg() != 0 {
		return fmt.Errorf("cat: exactly one path argument required")
	}
	s, err := openStore(dir)
	if err != nil {
		return err
	}
	defer s.Close()
	l, err := s.Log(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	want, printed := store.KindWindow, 0
	if *transitions {
		want = store.KindTransition
	}
	return l.Scan(*since, func(rec store.Record) error {
		if rec.Kind != want {
			return nil
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
		if printed++; *limit > 0 && printed >= *limit {
			return store.ErrStop
		}
		return nil
	})
}

func runVerify(dir string, args []string) error {
	s, err := openStore(dir)
	if err != nil {
		return err
	}
	defer s.Close()
	paths := args
	if len(paths) == 0 {
		if paths, err = s.Paths(); err != nil {
			return err
		}
	}
	bad := 0
	for _, id := range paths {
		l, err := s.Log(id)
		if err != nil {
			fmt.Printf("%s: open: %v\n", id, err)
			bad++
			continue
		}
		// Tails torn by a crash surface at open; Verify re-checks every
		// frame CRC of the sealed segments too.
		events := l.Recoveries()
		if evs, err := l.Verify(); err != nil {
			fmt.Printf("%s: verify: %v\n", id, err)
			bad++
			continue
		} else {
			events = append(events, evs...)
		}
		st := l.Stats()
		if len(events) == 0 {
			fmt.Printf("%s: ok (%d records, %d segments, %d bytes)\n",
				id, st.Records, st.Segments, st.Bytes)
			continue
		}
		bad++
		for _, ev := range events {
			fmt.Printf("%s: torn: %s\n", id, ev)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d path(s) missing or damaged (a writable reopen truncates torn tails)", bad)
	}
	return nil
}
