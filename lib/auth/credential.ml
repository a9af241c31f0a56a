type t =
  | Gsi of Ca.certificate
  | Krb of Kerberos.ticket
  | Unix_account of string
  | Host of string

let method_name = function
  | Gsi _ -> "globus"
  | Krb _ -> "kerberos"
  | Unix_account _ -> "unix"
  | Host _ -> "hostname"
