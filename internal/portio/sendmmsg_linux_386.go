package portio

// sysSendmmsg is sendmmsg(2), which package syscall leaves out on 386.
const sysSendmmsg = 345
