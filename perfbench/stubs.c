/* System calls the OCaml Unix library lacks, for the benchmark harness:
   CPU affinity, an idle-priority spinner thread, and a busy wait. */
#define _GNU_SOURCE
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* pb_pin pid cpu: restrict [pid] (0 = the caller) to CPU [cpu]. The
   harness keeps one core and gives the program under test the other, so
   neither preempts the other. Returns false when the kernel refuses. */
#include <sched.h>
value pb_pin(value vpid, value vcpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(vcpu), &set);
  return Val_bool(sched_setaffinity(Int_val(vpid), sizeof set, &set) == 0);
}

/* pb_allowed_cpus (): the CPUs the caller may run on, ascending. */
value pb_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  cpu_set_t set;
  list = Val_emptylist;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int i = CPU_SETSIZE - 1; i >= 0; i--) {
      if (CPU_ISSET(i, &set)) {
        cell = caml_alloc(2, 0);
        Store_field(cell, 0, Val_int(i));
        Store_field(cell, 1, list);
        list = cell;
      }
    }
  }
  CAMLreturn(list);
}

/* An idle-priority spinner thread on the program's CPU. A halted vCPU
   can take milliseconds to wake on a request; a CPU kept busy by a
   SCHED_IDLE thread is handed to the woken program at once, so
   latencies measure the program rather than the hypervisor's idle
   exit. The spinner only ever runs when that CPU has nothing else. */
#include <pthread.h>
static volatile int spinner_on = 0;

/* The spin-wait hint: eases the spinning thread's pressure on a
   hyperthread sibling. */
static inline void cpu_relax(void)
{
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}
static pthread_t spinner_thread;
static int spinner_cpu = -1;

static void *spin(void *arg)
{
  (void)arg;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(spinner_cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
  struct sched_param p = { 0 };
  pthread_setschedparam(pthread_self(), SCHED_IDLE, &p);
  while (spinner_on) cpu_relax();
  return NULL;
}

value pb_spinner_start(value vcpu)
{
  if (spinner_on) return Val_true;
  spinner_cpu = Int_val(vcpu);
  spinner_on = 1;
  if (pthread_create(&spinner_thread, NULL, spin, NULL) != 0) {
    spinner_on = 0;
    return Val_false;
  }
  return Val_true;
}

value pb_spinner_stop(value unit)
{
  (void)unit;
  if (spinner_on) {
    spinner_on = 0;
    pthread_join(spinner_thread, NULL);
  }
  return Val_unit;
}

/* pb_spin_until fds deadline: busy-poll [fds] (an OCaml array of file
   descriptors) until one is readable (true) or the wall clock reaches
   [deadline] (false). The load generator waits for its next due time
   here: spinning in C allocates nothing, so the generator's own GC
   stays out of the latencies it stamps, and a spinning CPU never
   halts. */
#include <poll.h>
#include <sys/time.h>
value pb_spin_until(value vfds, value vdeadline)
{
  CAMLparam2(vfds, vdeadline);
  int n = Wosize_val(vfds);
  struct pollfd pfd[8];
  double deadline = Double_val(vdeadline);
  if (n > 8) n = 8;
  for (int i = 0; i < n; i++) {
    pfd[i].fd = Int_val(Field(vfds, i));
    pfd[i].events = POLLIN;
    pfd[i].revents = 0;
  }
  int ready = 0;
  caml_enter_blocking_section();
  for (;;) {
    if (poll(pfd, n, 0) > 0) { ready = 1; break; }
    for (int i = 0; i < 16; i++) cpu_relax();
    struct timeval tv;
    gettimeofday(&tv, NULL);
    if (tv.tv_sec + tv.tv_usec * 1e-6 >= deadline) break;
  }
  caml_leave_blocking_section();
  CAMLreturn(Val_bool(ready));
}
