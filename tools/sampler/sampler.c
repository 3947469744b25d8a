/* A sampling profiler for boxes without `perf`: LD_PRELOAD this into a
 * binary built with frame pointers and it records the call stack of the
 * main thread up to HZ times per CPU-second (ITIMER_PROF; a tick that lands
 * on another thread is skipped, the walk knows only the main thread's stack
 * bounds). At exit it writes one line of hex addresses per sample to
 * SAMPLER_OUT (a path; default ./sampler.out): the program
 * counter, the word on top of the stack (the return address when the leaf
 * has pushed nothing, as libc's hand-written memcmp / memcpy have not),
 * then the return addresses along the frame-pointer chain. Every loaded
 * object's load bias ("# obj") and the executable mappings ("# map")
 * follow, with which symbolise.py undoes ASLR. x86-64 Linux / glibc only.
 *
 *   cc -O2 -shared -fPIC -o sampler.so tools/sampler/sampler.c
 */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define HZ 997 /* asked for; the kernel tick caps what fires (~250 Hz here) */
#define MAX_DEPTH 48
#define MAX_SAMPLES (1 << 16) /* 65 CPU-seconds if all HZ fire, minutes at the tick's rate */

extern void *__libc_stack_end; /* top of the main thread's stack */

static uintptr_t (*samples)[MAX_DEPTH];
static unsigned char depths[MAX_SAMPLES];
static volatile size_t taken, dropped;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    if (syscall(SYS_gettid) != getpid())
        return; /* not the main thread: `top` below is not this stack's */
    if (taken >= MAX_SAMPLES) {
        dropped++;
        return;
    }
    const greg_t *regs = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uintptr_t *stack = samples[taken];
    uintptr_t fp = (uintptr_t)regs[REG_RBP], low = (uintptr_t)regs[REG_RSP];
    const uintptr_t top = (uintptr_t)__libc_stack_end;
    size_t depth = 0;
    stack[depth++] = (uintptr_t)regs[REG_RIP];
    stack[depth++] = *(const uintptr_t *)low;
    /* Each frame is [saved rbp][return address]; a frame pointer is only
     * followed while it stays inside the live stack and moves upwards, so
     * a callee that uses rbp as a scratch register ends the walk instead
     * of faulting. */
    while (depth < MAX_DEPTH && fp >= low && fp + 16 <= top && (fp & 7) == 0) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        stack[depth++] = frame[1];
        low = fp + 16;
        fp = frame[0];
    }
    depths[taken++] = (unsigned char)depth;
}

__attribute__((constructor)) static void start(void) {
    samples = calloc(MAX_SAMPLES, sizeof *samples);
    if (!samples)
        return;
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000000 / HZ}, {0, 1000000 / HZ}};
    setitimer(ITIMER_PROF, &every, NULL);
}

/* One "# obj" line per loaded object: its load bias and its path (empty
 * for the executable itself). */
static int print_object(struct dl_phdr_info *info, size_t size, void *out) {
    (void)size;
    fprintf(out, "# obj %lx %s\n", (unsigned long)info->dlpi_addr, info->dlpi_name);
    return 0;
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SAMPLER_OUT");
    FILE *out = fopen(path ? path : "sampler.out", "w");
    if (!out || !samples)
        return;
    for (size_t i = 0; i < taken; i++) {
        for (size_t d = 0; d < depths[i]; d++)
            fprintf(out, "%lx ", (unsigned long)samples[i][d]);
        fputc('\n', out);
    }
    fprintf(out, "# samples %zu dropped %zu\n", (size_t)taken, (size_t)dropped);
    dl_iterate_phdr(print_object, out);
    char line[512];
    FILE *maps = fopen("/proc/self/maps", "r");
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, " r-xp "))
            fprintf(out, "# map %s", line);
    if (maps)
        fclose(maps);
    fclose(out);
}
