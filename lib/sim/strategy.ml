let current_name () = "stem"
