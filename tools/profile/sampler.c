/* An out-of-process instruction-pointer sampler that needs no PMU.

   Usage: sampler -o OUT -- COMMAND [ARG...]

   Runs COMMAND as a forked child and samples its user-mode instruction
   pointer every PERIOD_US (100) microseconds of the CPU time it uses.
   The clock is PERF_COUNT_SW_TASK_CLOCK, a software event, so a virtual
   machine without a hardware PMU can run it. Counting starts at the
   child's exec (enable_on_exec) and follows the processes it forks
   (inherit, which the kernel allows to map only per CPU: one counter and
   ring for each CPU the child may run on, from the sampler's affinity
   mask, which the child inherits). OUT gets, in hex, one "mmap ADDR LEN
   PGOFF PATH" line per executable mapping (PERF_RECORD_MMAP, which gives
   an executable's load address) and one "ip ADDR" line per sample;
   symbolize.py turns it into a table of symbols. The sample and
   lost-sample counts go to stderr, and the sampler exits with COMMAND's
   status. */
#define _GNU_SOURCE
#include <linux/perf_event.h>
#include <poll.h>
#include <sched.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#define DATA_PAGES 128 /* a power of two: a 512 KB ring per CPU */
#define MAX_CPUS 64
#define PERIOD_US 100

struct ring {
  struct perf_event_mmap_page *meta;
  unsigned char *data;
  uint64_t size;
};

static unsigned long samples, lost;

static void die(const char *what) {
  perror(what);
  exit(2);
}

/* Copy [n] bytes from ring offset [at], wrapping at the ring's end. */
static void ring_copy(const struct ring *r, void *dst, uint64_t at, size_t n) {
  uint64_t off = at & (r->size - 1);
  size_t first = n < r->size - off ? n : r->size - off;
  memcpy(dst, r->data + off, first);
  memcpy((unsigned char *)dst + first, r->data, n - first);
}

/* Write out every record the kernel has published, then free them. */
static void drain(const struct ring *r, FILE *out) {
  uint64_t head = __atomic_load_n(&r->meta->data_head, __ATOMIC_ACQUIRE);
  uint64_t tail = r->meta->data_tail;
  unsigned char rec[65536];
  while (tail < head) {
    struct perf_event_header hdr;
    ring_copy(r, &hdr, tail, sizeof hdr);
    ring_copy(r, rec, tail, hdr.size);
    const uint64_t *w = (const uint64_t *)(rec + sizeof hdr);
    if (hdr.type == PERF_RECORD_SAMPLE) {
      fprintf(out, "ip %llx\n", (unsigned long long)w[0]);
      samples++;
    } else if (hdr.type == PERF_RECORD_MMAP) {
      /* u32 pid, tid; u64 addr, len, pgoff; char filename[] */
      fprintf(out, "mmap %llx %llx %llx %s\n", (unsigned long long)w[1],
              (unsigned long long)w[2], (unsigned long long)w[3],
              (const char *)&w[4]);
    } else if (hdr.type == PERF_RECORD_LOST) {
      lost += w[1]; /* u64 id, lost */
    }
    tail += hdr.size;
  }
  __atomic_store_n(&r->meta->data_tail, tail, __ATOMIC_RELEASE);
}

int main(int argc, char **argv) {
  if (argc < 5 || strcmp(argv[1], "-o") != 0 || strcmp(argv[3], "--") != 0) {
    fprintf(stderr, "usage: %s -o OUT -- COMMAND [ARG...]\n", argv[0]);
    return 2;
  }
  const char *out_path = argv[2];
  char **command = argv + 4;

  /* The child inherits this mask, so it and its forks run on these CPUs
     alone unless they widen it; the kernel leaves inactive CPUs out. */
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
    die("sched_getaffinity");
  int cpu_of[MAX_CPUS];
  int cpus = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (cpus == MAX_CPUS) {
      fprintf(stderr, "sampler: more than %d CPUs; raise MAX_CPUS\n",
              MAX_CPUS);
      return 2;
    }
    cpu_of[cpus++] = cpu;
  }
  FILE *out = fopen(out_path, "w");
  if (!out) die(out_path);

  /* The child waits on [go] until its counter exists, then execs. */
  int go[2];
  if (pipe(go) != 0) die("pipe");
  pid_t child = fork();
  if (child < 0) die("fork");
  if (child == 0) {
    char byte;
    close(go[1]);
    if (read(go[0], &byte, 1) != 1) _exit(127);
    execvp(command[0], command);
    perror(command[0]);
    _exit(127);
  }
  close(go[0]);

  struct perf_event_attr attr;
  memset(&attr, 0, sizeof attr);
  attr.size = sizeof attr;
  attr.type = PERF_TYPE_SOFTWARE;
  attr.config = PERF_COUNT_SW_TASK_CLOCK;
  attr.sample_period = (uint64_t)PERIOD_US * 1000; /* ns of task clock */
  attr.sample_type = PERF_SAMPLE_IP;
  attr.disabled = 1;
  attr.enable_on_exec = 1;
  attr.inherit = 1;
  attr.mmap = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.wakeup_events = 256;
  long page = sysconf(_SC_PAGESIZE);
  struct ring rings[MAX_CPUS];
  struct pollfd fds[MAX_CPUS];
  for (int i = 0; i < cpus; i++) {
    int fd = (int)syscall(SYS_perf_event_open, &attr, child, cpu_of[i], -1,
                          PERF_FLAG_FD_CLOEXEC);
    void *base = fd < 0 ? MAP_FAILED
                        : mmap(NULL, (DATA_PAGES + 1) * page,
                               PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    if (base == MAP_FAILED) {
      kill(child, SIGKILL);
      die(fd < 0 ? "perf_event_open" : "mmap");
    }
    rings[i].meta = base;
    rings[i].data = (unsigned char *)base + page;
    rings[i].size = (uint64_t)DATA_PAGES * page;
    fds[i].fd = fd;
    fds[i].events = POLLIN;
  }
  if (write(go[1], "g", 1) != 1) die("write");
  close(go[1]);

  int status = 0;
  for (;;) {
    poll(fds, cpus, 50);
    for (int i = 0; i < cpus; i++) drain(&rings[i], out);
    pid_t r = waitpid(child, &status, WNOHANG);
    if (r == child) break;
    if (r < 0) die("waitpid");
  }
  for (int i = 0; i < cpus; i++) drain(&rings[i], out);
  fclose(out);
  fprintf(stderr, "sampler: %lu samples, %lu lost\n", samples, lost);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}
