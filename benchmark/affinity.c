/* Thread placement for the benchmark (Linux); elsewhere no-ops that
   report failure, and the benchmark runs unplaced.

   kbench_pin_cpu pins the calling thread to one CPU. kbench_set_slice
   sets the calling thread's EEVDF slice (Linux 6.12+; 0 restores the
   default). Threads inherit both from the thread that creates them.

   kbench_poll_start starts a thread that polls one CPU at idle priority
   (SCHED_IDLE), so the CPU never halts while the benchmark's threads on
   it wait; any other thread there preempts it at once.
   kbench_poll_stop stops it and waits for it to end. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <string.h>
#include <sys/syscall.h>
#include <unistd.h>

/* The kernel's struct sched_attr, under a name of our own: newer C
   libraries declare the struct themselves. */
struct kbench_sched_attr {
  uint32_t size;
  uint32_t sched_policy;
  uint64_t sched_flags;
  int32_t sched_nice;
  uint32_t sched_priority;
  uint64_t sched_runtime;
  uint64_t sched_deadline;
  uint64_t sched_period;
  uint32_t sched_util_min;
  uint32_t sched_util_max;
};
#endif

value kbench_pin_cpu(value cpu)
{
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
#else
  (void)cpu;
  return Val_false;
#endif
}

value kbench_set_slice(value ns)
{
#if defined(__linux__) && defined(SYS_sched_setattr)
  struct kbench_sched_attr a;
  memset(&a, 0, sizeof a);
  a.size = sizeof a;
  a.sched_policy = SCHED_OTHER;
  a.sched_runtime = (uint64_t)Long_val(ns);
  return Val_bool(syscall(SYS_sched_setattr, 0, &a, 0) == 0);
#else
  (void)ns;
  return Val_false;
#endif
}

#ifdef __linux__
static volatile int poll_on;
static pthread_t poller;

static void *poll_main(void *arg)
{
  cpu_set_t set;
  struct sched_param p;
  CPU_ZERO(&set);
  CPU_SET((int)(intptr_t)arg, &set);
  memset(&p, 0, sizeof p);
  if (pthread_setaffinity_np(pthread_self(), sizeof set, &set) != 0
      || pthread_setschedparam(pthread_self(), SCHED_IDLE, &p) != 0)
    return NULL;
  while (__atomic_load_n(&poll_on, __ATOMIC_RELAXED)) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    __asm__ __volatile__("yield");
#endif
  }
  return NULL;
}
#endif

value kbench_poll_start(value cpu)
{
#ifdef __linux__
  __atomic_store_n(&poll_on, 1, __ATOMIC_RELAXED);
  return Val_bool(pthread_create(&poller, NULL, poll_main, (void *)(intptr_t)Int_val(cpu)) == 0);
#else
  (void)cpu;
  return Val_false;
#endif
}

value kbench_poll_stop(value unit)
{
  (void)unit;
#ifdef __linux__
  __atomic_store_n(&poll_on, 0, __ATOMIC_RELAXED);
  pthread_join(poller, NULL);
#endif
  return Val_unit;
}
