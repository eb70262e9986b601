package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// strudel publishes durably: one fsync per page, plus directory syncs.
// On the machine this benchmark was calibrated on (ext4 mounted with
// discard on a shared virtual disk) an fsync takes 0.25 ms or 1 ms
// depending on what else the host's disk is doing, in phases of seconds,
// and creating files gets several times dearer in system time for a
// while after a few thousand have been deleted. A 469-page build is 80 ms
// of work and then anything from 60 to 300 ms of that; no statistic of
// its wall time repeated within 40 % from one run to the next, and runs
// slowed each other down through the files they removed on exit.
//
// So the benchmark takes the disk out: its scratch directory, which
// holds every input, every published tree and every log, is a tmpfs
// mounted over a directory of the checkout in a mount namespace of the
// driver's own. The programs under test still create, write, fsync,
// rename, link and remove every file; none of it waits for a device.
// What a real disk adds is about pages × disk.fsync_us, which the
// traced run reports from measureFsync. The namespace dies with the
// driver, so nothing stays mounted whatever way the driver ends.

// The namespace belongs to the main thread, to which init pins the main
// goroutine. Every file the driver touches in scratch it touches from
// the main goroutine, and every child is started from it and inherits
// the namespace; the load generator's goroutines, on other threads, use
// only the network.
func init() { runtime.LockOSThread() }

// mountRAM gives the calling thread a private mount namespace and
// mounts a tmpfs on dir there. It needs CAP_SYS_ADMIN.
func mountRAM(dir string) error {
	if err := syscall.Unshare(syscall.CLONE_NEWNS); err != nil {
		return fmt.Errorf("unshare: %v", err)
	}
	// Without this the mount below could propagate to the namespace we
	// came from.
	if err := syscall.Mount("", "/", "", syscall.MS_REC|syscall.MS_PRIVATE, ""); err != nil {
		return fmt.Errorf("make / private: %v", err)
	}
	if err := syscall.Mount("strudel-bench", dir, "tmpfs", 0, "mode=0755"); err != nil {
		return fmt.Errorf("mount tmpfs on %s: %v", dir, err)
	}
	return nil
}

// measureFsync reports what one small durable write costs in dir, in
// microseconds: the median of a hundred write-and-fsync pairs.
func measureFsync(dir string) float64 {
	var us []float64
	for i := 0; i < 100; i++ {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("fsync-%d", i)))
		if err != nil {
			return 0
		}
		f.Write(make([]byte, 1200)) // about one page of the bench site
		start := time.Now()
		err = f.Sync()
		us = append(us, float64(time.Since(start))/1e3)
		f.Close()
		os.Remove(f.Name())
		if err != nil {
			return 0
		}
	}
	return median(us)
}
