package kernel

import "demosmp/internal/trace"

// The kernel's trace points, each declared once: its category, event name,
// detail format and argument kinds live in trace's site registry, so a
// record carries only the site's id and the arguments. A site's ArgStr is
// passed as k.trace's str; the rest, in order, as trace.PID, trace.Machine
// and trace.Int. TestDeferredTraceRendersAsBefore holds every call to its
// site's kinds and every site's kinds to its format.
var (
	// Process lifecycle.
	siteSpawn      = trace.NewSite(trace.CatProc, "spawn", "%v kind=%s image=%dB links=%d", trace.ArgPID, trace.ArgStr, trace.ArgInt, trace.ArgInt)
	siteExit       = trace.NewSite(trace.CatProc, "exit", "%v code=%d", trace.ArgPID, trace.ArgInt)
	siteCrash      = trace.NewSite(trace.CatProc, "crash", "%v: %s", trace.ArgPID, trace.ArgStr)
	siteSuspend    = trace.NewSite(trace.CatProc, "suspend", "%v", trace.ArgPID)
	siteResume     = trace.NewSite(trace.CatProc, "resume", "%v", trace.ArgPID)
	siteCreateFail = trace.NewSite(trace.CatProc, "create-failed", "%s", trace.ArgStr)
	siteSwappedOut = trace.NewSite(trace.CatProc, "swapped-out", "%v: %d pages under memory pressure", trace.ArgPID, trace.ArgInt)
	siteRestart    = trace.NewSite(trace.CatProc, "restart", "%v back up (restart %d)", trace.ArgMachine, trace.ArgInt)
	siteReviveFail = trace.NewSite(trace.CatProc, "revive-failed", "%v: %s", trace.ArgPID, trace.ArgStr)
	sitePrint      = trace.NewSite(trace.CatConsole, "print", "%v: %s", trace.ArgPID, trace.ArgStr)

	// Migration: the eight steps of Figure 3-1 and their failures.
	siteStep1        = trace.NewSite(trace.CatMigrate, "step1-remove-from-execution", "%v was %v", trace.ArgPID, trace.ArgStr)
	siteStep2        = trace.NewSite(trace.CatMigrate, "step2-ask-destination", "%v -> %v (program=%dB resident=%dB swappable=%dB)", trace.ArgPID, trace.ArgMachine, trace.ArgInt, trace.ArgInt, trace.ArgInt)
	siteAccepted     = trace.NewSite(trace.CatMigrate, "accepted", "%v by %v", trace.ArgPID, trace.ArgMachine)
	siteStep3        = trace.NewSite(trace.CatMigrate, "step3-allocate-state", "%v from %v (reserving %dB)", trace.ArgPID, trace.ArgMachine, trace.ArgInt)
	siteStep4        = trace.NewSite(trace.CatMigrate, "step4-transfer-state", "%v pull %v", trace.ArgPID, trace.ArgStr)
	siteStep5        = trace.NewSite(trace.CatMigrate, "step5-transfer-program", "%v pull %v", trace.ArgPID, trace.ArgStr)
	siteStream       = trace.NewSite(trace.CatData, "stream-region", "%v %v: %dB in %d packets -> %v", trace.ArgPID, trace.ArgStr, trace.ArgInt, trace.ArgInt, trace.ArgMachine)
	siteStep6        = trace.NewSite(trace.CatMigrate, "step6-forward-pending", "%v: %d queued messages to %v", trace.ArgPID, trace.ArgInt, trace.ArgMachine)
	siteStep7        = trace.NewSite(trace.CatMigrate, "step7-cleanup-forwarding-address", "%v: forwarder -> %v (%d bytes)", trace.ArgPID, trace.ArgMachine, trace.ArgInt)
	siteStep8        = trace.NewSite(trace.CatMigrate, "step8-restart", "%v restarted as %v (%d pending had been forwarded)", trace.ArgPID, trace.ArgStr, trace.ArgInt)
	siteAborted      = trace.NewSite(trace.CatMigrate, "migrate-aborted", "%v: %s", trace.ArgPID, trace.ArgStr)
	siteRefused      = trace.NewSite(trace.CatMigrate, "refused", "%v: %s", trace.ArgPID, trace.ArgStr)
	siteIncomingFail = trace.NewSite(trace.CatMigrate, "incoming-failed", "%v: %s", trace.ArgPID, trace.ArgStr)
	siteCheckpoint   = trace.NewSite(trace.CatMigrate, "checkpoint", "%v: %s", trace.ArgPID, trace.ArgStr)
	siteRevive       = trace.NewSite(trace.CatMigrate, "revive", "%v as %v from %dB checkpoint", trace.ArgPID, trace.ArgStr, trace.ArgInt)

	// Move-data facility.
	siteStrayPacket = trace.NewSite(trace.CatData, "stray-packet", "xfer=%d seq=%d", trace.ArgInt, trace.ArgInt)
	siteWriteFault  = trace.NewSite(trace.CatData, "write-fault", "%s", trace.ArgStr)
	siteReadFault   = trace.NewSite(trace.CatData, "read-fault", "%s", trace.ArgStr)

	// Forwarding (Figure 4-1) and the search for a lost process.
	siteForward         = trace.NewSite(trace.CatForward, "forward", "%v for %v -> %v (hop %d)", trace.ArgStr, trace.ArgPID, trace.ArgMachine, trace.ArgInt)
	siteBounce          = trace.NewSite(trace.CatForward, "bounce", "%v for %v returned to %v", trace.ArgStr, trace.ArgPID, trace.ArgMachine)
	siteFwdReclaimed    = trace.NewSite(trace.CatForward, "forwarder-reclaimed", "%v", trace.ArgPID)
	siteSearchReroute   = trace.NewSite(trace.CatForward, "search-reroute", "%v for %v -> creator %v", trace.ArgStr, trace.ArgPID, trace.ArgMachine)
	siteSearchBroadcast = trace.NewSite(trace.CatForward, "search-broadcast", "%v", trace.ArgPID)
	siteSearchTimeout   = trace.NewSite(trace.CatForward, "search-timeout", "%v: %d held messages dead-lettered", trace.ArgPID, trace.ArgInt)
	siteSearchReply     = trace.NewSite(trace.CatForward, "search-reply", "%v is at %v (asked by %v)", trace.ArgPID, trace.ArgMachine, trace.ArgMachine)

	// Link update (Figure 5-1).
	siteLinkUpdateSent    = trace.NewSite(trace.CatLinkUpdate, "linkupdate-sent", "to kernel of %v: %v is now on %v", trace.ArgPID, trace.ArgPID, trace.ArgMachine)
	siteLinkUpdateApplied = trace.NewSite(trace.CatLinkUpdate, "linkupdate-applied", "%d links of %v now point at %v on %v", trace.ArgInt, trace.ArgPID, trace.ArgPID, trace.ArgMachine)
	siteLinkUpdateBad     = trace.NewSite(trace.CatLinkUpdate, "linkupdate-bad", "%s", trace.ArgStr)
	siteEagerApplied      = trace.NewSite(trace.CatLinkUpdate, "eager-applied", "%d links now point at %v on %v", trace.ArgInt, trace.ArgPID, trace.ArgMachine)

	// Delivery.
	siteDeadLetter     = trace.NewSite(trace.CatDeliver, "dead-letter", "%v for %v", trace.ArgStr, trace.ArgPID)
	siteUnknownControl = trace.NewSite(trace.CatDeliver, "unknown-control", "%s", trace.ArgStr)
	siteCarriedDropped = trace.NewSite(trace.CatDeliver, "carried-link-dropped", "%v: %s", trace.ArgPID, trace.ArgStr)
)
